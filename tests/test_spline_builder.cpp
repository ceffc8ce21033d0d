// Tests for the batched spline builder: the three optimization versions
// agree, the interpolation property holds, and accuracy converges at the
// expected order, across degrees / grids / execution spaces. The default
// version is bitwise the FusedSpmv rung, and a non-finite right-hand side
// stays in its own column.
#include "core/hermite_builder.hpp"
#include "core/spline_builder.hpp"
#include "core/spline_evaluator.hpp"
#include "bsplines/knots.hpp"
#include "parallel/deep_copy.hpp"
#include "parallel/subview.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <tuple>

namespace {

using namespace pspl;
using bsplines::BSplineBasis;
using core::BuilderVersion;
using core::SplineBuilder;
using core::SplineEvaluator;

double test_function(double x)
{
    return std::sin(2.0 * std::numbers::pi * x)
           + 0.5 * std::cos(4.0 * std::numbers::pi * x + 0.3);
}

/// Fill a (n, batch) block with per-column phase-shifted samples of f at the
/// basis interpolation points.
View2D<double> sample_block(const BSplineBasis& basis, std::size_t batch)
{
    const auto pts = basis.interpolation_points();
    const std::size_t n = basis.nbasis();
    View2D<double> b("b", n, batch);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < batch; ++j) {
            b(i, j) = test_function(pts[i] + 0.01 * static_cast<double>(j));
        }
    }
    return b;
}

class BuilderParam
    : public ::testing::TestWithParam<std::tuple<int, bool, BuilderVersion>>
{
protected:
    BSplineBasis make_basis(std::size_t ncells) const
    {
        const auto [degree, uniform, version] = GetParam();
        (void)version;
        if (uniform) {
            return BSplineBasis::uniform(degree, ncells, 0.0, 1.0);
        }
        return BSplineBasis::non_uniform(
                degree, bsplines::stretched_breaks(ncells, 0.0, 1.0, 0.4));
    }
};

TEST_P(BuilderParam, InterpolationPropertyHolds)
{
    const auto [degree, uniform, version] = GetParam();
    (void)degree;
    (void)uniform;
    const auto basis = make_basis(40);
    const std::size_t batch = 7;
    SplineBuilder builder(basis, version);
    auto b = sample_block(basis, batch);
    const auto values = clone(b);

    builder.build_inplace(b);

    // Evaluating the spline at the interpolation points must reproduce the
    // input values: that is the defining property of interpolation.
    SplineEvaluator eval(basis);
    const auto pts = basis.interpolation_points();
    for (std::size_t j = 0; j < batch; ++j) {
        auto coeffs = subview(b, ALL, j);
        for (std::size_t i = 0; i < basis.nbasis(); ++i) {
            EXPECT_NEAR(eval(pts[i], coeffs), values(i, j), 1e-11)
                    << "i=" << i << " j=" << j;
        }
    }
}

TEST_P(BuilderParam, AllVersionsAgree)
{
    const auto [degree, uniform, version] = GetParam();
    (void)degree;
    (void)uniform;
    const auto basis = make_basis(64);
    const std::size_t batch = 5;
    const auto values = sample_block(basis, batch);

    SplineBuilder ref_builder(basis, BuilderVersion::Baseline);
    auto ref = clone(values);
    ref_builder.build_inplace(ref);

    SplineBuilder builder(basis, version);
    auto out = clone(values);
    builder.build_inplace(out);

    for (std::size_t i = 0; i < basis.nbasis(); ++i) {
        for (std::size_t j = 0; j < batch; ++j) {
            EXPECT_NEAR(out(i, j), ref(i, j), 1e-12);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
        Versions, BuilderParam,
        ::testing::Combine(::testing::Values(3, 4, 5), ::testing::Bool(),
                           ::testing::Values(BuilderVersion::Baseline,
                                             BuilderVersion::Fused,
                                             BuilderVersion::FusedSpmv,
                                             BuilderVersion::FusedSimd,
                                             BuilderVersion::FusedSpmvSimd)),
        [](const auto& info) {
            const int d = std::get<0>(info.param);
            const bool u = std::get<1>(info.param);
            const BuilderVersion v = std::get<2>(info.param);
            std::string name = "deg" + std::to_string(d)
                               + (u ? "_uniform_" : "_nonuniform_");
            switch (v) {
            case BuilderVersion::Baseline:
                name += "baseline";
                break;
            case BuilderVersion::Fused:
                name += "fused";
                break;
            case BuilderVersion::FusedSpmv:
                name += "spmv";
                break;
            case BuilderVersion::FusedSimd:
                name += "fused_simd";
                break;
            case BuilderVersion::FusedSpmvSimd:
                name += "spmv_simd";
                break;
            }
            return name;
        });

template <class Exec>
class BuilderExecTyped : public ::testing::Test
{
};

#if defined(PSPL_ENABLE_OPENMP)
using ExecSpaces = ::testing::Types<pspl::Serial, pspl::OpenMP, pspl::Threads>;
#else
using ExecSpaces = ::testing::Types<pspl::Serial, pspl::Threads>;
#endif
TYPED_TEST_SUITE(BuilderExecTyped, ExecSpaces);

TYPED_TEST(BuilderExecTyped, ExecutionSpacesProduceIdenticalResults)
{
    const auto basis = BSplineBasis::uniform(3, 48, 0.0, 1.0);
    const std::size_t batch = 33;
    SplineBuilder builder(basis, BuilderVersion::FusedSpmv);
    auto b1 = sample_block(basis, batch);
    auto b2 = clone(b1);
    builder.build_inplace<pspl::Serial>(b1);
    builder.build_inplace<TypeParam>(b2);
    for (std::size_t i = 0; i < basis.nbasis(); ++i) {
        for (std::size_t j = 0; j < batch; ++j) {
            EXPECT_DOUBLE_EQ(b1(i, j), b2(i, j));
        }
    }
}

class ConvergenceParam : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(ConvergenceParam, OffGridErrorConvergesAtExpectedOrder)
{
    const auto [degree, uniform] = GetParam();
    // Interpolation error ~ h^{degree+1}: doubling n must shrink the error
    // by ~2^{degree+1}. Accept generous slack for the non-uniform grid.
    auto max_err = [&](std::size_t n) {
        const auto basis =
                uniform ? BSplineBasis::uniform(degree, n, 0.0, 1.0)
                        : BSplineBasis::non_uniform(
                                  degree,
                                  bsplines::stretched_breaks(n, 0.0, 1.0,
                                                             0.4));
        SplineBuilder builder(basis);
        View2D<double> b("b", n, 1);
        const auto pts = basis.interpolation_points();
        for (std::size_t i = 0; i < n; ++i) {
            b(i, 0) = test_function(pts[i]);
        }
        builder.build_inplace(b);
        SplineEvaluator eval(basis);
        auto coeffs = subview(b, ALL, std::size_t{0});
        double err = 0.0;
        for (int s = 0; s < 1000; ++s) {
            const double x = static_cast<double>(s) / 1000.0;
            err = std::max(err,
                           std::abs(eval(x, coeffs) - test_function(x)));
        }
        return err;
    };

    const double e1 = max_err(64);
    const double e2 = max_err(128);
    const double expected_ratio = std::pow(2.0, degree + 1);
    EXPECT_GT(e1 / e2, expected_ratio / 3.0)
            << "e1=" << e1 << " e2=" << e2;
}

INSTANTIATE_TEST_SUITE_P(Orders, ConvergenceParam,
                         ::testing::Combine(::testing::Values(3, 4, 5),
                                            ::testing::Bool()),
                         [](const auto& info) {
                             const int d = std::get<0>(info.param);
                             const bool u = std::get<1>(info.param);
                             return std::string("deg") + std::to_string(d)
                                    + (u ? "_uniform" : "_nonuniform");
                         });

TEST(SplineBuilder, RejectsWrongRhsExtent)
{
    const auto basis = BSplineBasis::uniform(3, 16, 0.0, 1.0);
    SplineBuilder builder(basis);
    View2D<double> b("b", 15, 2); // one row short
    EXPECT_DEATH(builder.build_inplace(b), "nbasis");
}

TEST(SplineBuilder, ConstantFunctionGivesConstantCoefficients)
{
    // Partition of unity: interpolating f=c yields all coefficients = c.
    const auto basis = BSplineBasis::uniform(4, 20, 0.0, 1.0);
    SplineBuilder builder(basis);
    View2D<double> b("b", 20, 3);
    pspl::deep_copy(b, 2.5);
    builder.build_inplace(b);
    for (std::size_t i = 0; i < 20; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_NEAR(b(i, j), 2.5, 1e-12);
        }
    }
}

TEST(SplineBuilder, LargeBatchStress)
{
    const auto basis = BSplineBasis::uniform(3, 32, 0.0, 1.0);
    SplineBuilder builder(basis);
    const std::size_t batch = 2048;
    auto b = sample_block(basis, batch);
    const auto values = clone(b);
    builder.build_inplace(b);
    SplineEvaluator eval(basis);
    const auto pts = basis.interpolation_points();
    // Spot-check a few columns.
    for (const std::size_t j : {std::size_t{0}, std::size_t{1000},
                                std::size_t{2047}}) {
        auto coeffs = subview(b, ALL, j);
        for (std::size_t i = 0; i < 32; i += 7) {
            EXPECT_NEAR(eval(pts[i], coeffs), values(i, j), 1e-11);
        }
    }
}

TEST(SplineBuilder, Rank3BatchMatchesColumnwiseSolve)
{
    // A (n, b1, b2) block -- GYSELA keeps several batch dimensions -- must
    // produce exactly the same coefficients as solving each column alone.
    const auto basis = BSplineBasis::uniform(3, 24, 0.0, 1.0);
    SplineBuilder builder(basis);
    const std::size_t b1 = 4;
    const std::size_t b2 = 6;
    View3D<double> block("block", 24, b1, b2);
    const auto pts = basis.interpolation_points();
    for (std::size_t i = 0; i < 24; ++i) {
        for (std::size_t j = 0; j < b1; ++j) {
            for (std::size_t k = 0; k < b2; ++k) {
                block(i, j, k) = test_function(
                        pts[i] + 0.01 * static_cast<double>(j * b2 + k));
            }
        }
    }
    View2D<double> single("single", 24, 1);
    // Reference: solve one chosen column by itself.
    for (std::size_t i = 0; i < 24; ++i) {
        single(i, 0) = block(i, 2, 3);
    }
    builder.build_inplace(single);
    builder.build_inplace(block);
    for (std::size_t i = 0; i < 24; ++i) {
        EXPECT_DOUBLE_EQ(block(i, 2, 3), single(i, 0));
    }
}

TEST(SplineBuilder, VersionNames)
{
    EXPECT_STREQ(to_string(BuilderVersion::Baseline), "baseline");
    EXPECT_STREQ(to_string(BuilderVersion::Fused), "kernel-fusion");
    EXPECT_STREQ(to_string(BuilderVersion::FusedSpmv), "gemv->spmv");
    EXPECT_STREQ(to_string(BuilderVersion::FusedSimd), "kernel-fusion+simd");
    EXPECT_STREQ(to_string(BuilderVersion::FusedSpmvSimd), "gemv->spmv+simd");
}

// ---------------------------------------------------------------------------
// The default version: 8-column packs, bitwise the FusedSpmv rung
// ---------------------------------------------------------------------------

enum class Grid { Uniform, Stretched, Clamped };

BSplineBasis grid_basis(int degree, Grid grid, std::size_t ncells)
{
    switch (grid) {
    case Grid::Uniform:
        return BSplineBasis::uniform(degree, ncells, 0.0, 1.0);
    case Grid::Stretched:
        return BSplineBasis::non_uniform(
                degree, bsplines::stretched_breaks(ncells, 0.0, 1.0, 0.4));
    case Grid::Clamped:
    default:
        return BSplineBasis::clamped_uniform(degree, ncells, 0.0, 1.0);
    }
}

std::string grid_name(Grid grid)
{
    return grid == Grid::Uniform     ? "uniform"
           : grid == Grid::Stretched ? "stretched"
                                     : "clamped";
}

/// memcmp of two doubles: the identity promised here is bitwise, NaN
/// payloads and the sign of zero included.
bool same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_bitwise_equal(const View2D<double>& out, const View2D<double>& ref,
                          const std::string& what)
{
    for (std::size_t i = 0; i < ref.extent(0); ++i) {
        for (std::size_t j = 0; j < ref.extent(1); ++j) {
            ASSERT_TRUE(same_bits(out(i, j), ref(i, j)))
                    << what << " i=" << i << " j=" << j << " out=" << out(i, j)
                    << " ref=" << ref(i, j);
        }
    }
}

constexpr std::size_t identity_batches[] = {1, 7, 9, 33, 1003};

class DefaultVersionParam
    : public ::testing::TestWithParam<std::tuple<int, Grid>>
{
};

TEST_P(DefaultVersionParam, MatchesSpmvRungBitwise)
{
    const auto [degree, grid] = GetParam();
    const auto basis = grid_basis(degree, grid, 40);
    SplineBuilder rung(basis, BuilderVersion::FusedSpmv);
    rung.set_precision(core::Precision::Double);
    rung.set_tile_policy(TilePolicy::off());
    SplineBuilder builder(basis);
    builder.set_precision(core::Precision::Double);
    ASSERT_EQ(builder.version(), core::default_builder_version);
    ASSERT_EQ(core::fused_chain(builder.version()).pack_width, 8);

    const std::pair<const char*, TilePolicy> policies[] = {
            {"auto", TilePolicy::automatic()},
            {"off", TilePolicy::off()},
            {"13", TilePolicy::explicit_width(13)}};
    for (const auto& [name, policy] : policies) {
        builder.set_tile_policy(policy);
        for (const std::size_t batch : identity_batches) {
            const auto values = sample_block(basis, batch);
            auto ref = clone(values);
            rung.build_inplace(ref);
            auto out = clone(values);
            builder.build_inplace(out);
            expect_bitwise_equal(out, ref,
                                 std::string("tile=") + name
                                         + " batch=" + std::to_string(batch));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
        DegreesGrids, DefaultVersionParam,
        ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                           ::testing::Values(Grid::Uniform, Grid::Stretched,
                                             Grid::Clamped)),
        [](const auto& info) {
            return "deg" + std::to_string(std::get<0>(info.param)) + "_"
                   + grid_name(std::get<1>(info.param));
        });

class DefaultHermiteParam
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(DefaultHermiteParam, MatchesSpmvRungBitwise)
{
    const auto [degree, uniform] = GetParam();
    const auto basis =
            uniform ? BSplineBasis::clamped_uniform(degree, 40, 0.0, 1.0)
                    : BSplineBasis::clamped_non_uniform(
                              degree, bsplines::stretched_breaks(40, 0.0, 1.0,
                                                                 0.4));
    core::HermiteSplineBuilder rung(basis, BuilderVersion::FusedSpmv);
    rung.set_precision(core::Precision::Double);
    rung.set_tile_policy(TilePolicy::off());
    core::HermiteSplineBuilder builder(basis);
    builder.set_precision(core::Precision::Double);
    ASSERT_EQ(builder.version(), core::default_builder_version);

    const std::pair<const char*, TilePolicy> policies[] = {
            {"auto", TilePolicy::automatic()},
            {"off", TilePolicy::off()},
            {"13", TilePolicy::explicit_width(13)}};
    for (const auto& [name, policy] : policies) {
        builder.set_tile_policy(policy);
        for (const std::size_t batch : identity_batches) {
            const auto values = sample_block(basis, batch);
            auto ref = clone(values);
            rung.build_inplace(ref);
            auto out = clone(values);
            builder.build_inplace(out);
            expect_bitwise_equal(out, ref,
                                 std::string("tile=") + name
                                         + " batch=" + std::to_string(batch));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(OddDegrees, DefaultHermiteParam,
                         ::testing::Combine(::testing::Values(1, 3, 5),
                                            ::testing::Bool()),
                         [](const auto& info) {
                             const int d = std::get<0>(info.param);
                             const bool u = std::get<1>(info.param);
                             return std::string("deg") + std::to_string(d)
                                    + (u ? "_uniform" : "_stretched");
                         });

// A NaN or an infinity in one right-hand side must stay in its column: the
// other lanes of its 8-column pack, and every other pack, keep the bits of
// the clean build. Batch 37 puts column 19 inside a full pack (16..23) and
// column 34 in the 5-lane tail pack (32..36).
TEST(DefaultVersion, NonFiniteColumnLeavesOtherColumnsBitwiseUnchanged)
{
    constexpr std::size_t batch = 37;
    const double poisons[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
    for (const int degree : {3, 5}) {
        for (const Grid grid : {Grid::Uniform, Grid::Stretched}) {
            const auto basis = grid_basis(degree, grid, 48);
            SplineBuilder builder(basis);
            builder.set_precision(core::Precision::Double);
            const auto values = sample_block(basis, batch);
            auto clean = clone(values);
            builder.build_inplace(clean);
            for (const std::size_t col : {std::size_t{19}, std::size_t{34}}) {
                for (const double poison : poisons) {
                    auto b = clone(values);
                    b(basis.nbasis() / 2, col) = poison;
                    builder.build_inplace(b);
                    bool reached = false;
                    for (std::size_t i = 0; i < basis.nbasis(); ++i) {
                        reached = reached || !std::isfinite(b(i, col));
                        for (std::size_t j = 0; j < batch; ++j) {
                            if (j == col) {
                                continue;
                            }
                            ASSERT_TRUE(same_bits(b(i, j), clean(i, j)))
                                    << "deg" << degree << " "
                                    << grid_name(grid) << " poison=" << poison
                                    << " in column " << col << ": (" << i
                                    << ", " << j << ") changed";
                        }
                    }
                    EXPECT_TRUE(reached)
                            << "the poison never reached column " << col;
                }
            }
        }
    }
}

} // namespace
