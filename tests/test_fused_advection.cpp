// Tests for the fused build->evaluate advection pipeline (AdvectionPlan):
// path selection (the plan runs exactly for fusable configurations),
// bitwise identity with an Algorithm 2 oracle at Precision::Double across
// degrees / grids / builder versions / execution spaces, the shifted
// strip-evaluator entry points, and the zero-setup guarantee of the
// cached plan.
#include "algorithm2_oracle.hpp"
#include "scoped_env.hpp"

#include "advection/advection_plan.hpp"
#include "advection/semi_lagrangian.hpp"
#include "advection/semi_lagrangian_2d.hpp"
#include "bsplines/knots.hpp"
#include "parallel/arena.hpp"
#include "parallel/deep_copy.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace {

using namespace pspl;
using advection::AdvectionPlan;
using advection::BatchedAdvection1D;
using advection::BatchedAdvection2D;
using advection::uniform_velocities;
using bsplines::BSplineBasis;
using core::BuilderVersion;
using test::ScopedEnv;

constexpr double two_pi = 2.0 * std::numbers::pi;

std::uint64_t ulp_distance(double a, double b)
{
    std::uint64_t ua = 0;
    std::uint64_t ub = 0;
    std::memcpy(&ua, &a, sizeof(a));
    std::memcpy(&ub, &b, sizeof(b));
    const auto map = [](std::uint64_t u) {
        return (u & 0x8000000000000000ULL) != 0
                       ? 0x8000000000000000ULL - (u & 0x7fffffffffffffffULL)
                       : 0x8000000000000000ULL + u;
    };
    const std::uint64_t ma = map(ua);
    const std::uint64_t mb = map(ub);
    return ma > mb ? ma - mb : mb - ma;
}

double initial_profile(double x)
{
    return 1.0 + 0.5 * std::sin(two_pi * x)
           + 0.25 * std::cos(2.0 * two_pi * x);
}

View2D<double> initial_condition(const BatchedAdvection1D& adv)
{
    View2D<double> f("f", adv.nv(), adv.nx());
    for (std::size_t j = 0; j < adv.nv(); ++j) {
        for (std::size_t i = 0; i < adv.nx(); ++i) {
            f(j, i) = initial_profile(adv.points()(i))
                      + 0.01 * static_cast<double>(j);
        }
    }
    return f;
}

/// The fused pipeline only covers the FP64 ladder; pin it so the identity
/// assertions hold regardless of the suite-wide PSPL_PRECISION leg.
class FusedAdvection : public ::testing::Test
{
protected:
    ScopedEnv m_precision{"PSPL_PRECISION", "double"};
};

TEST_F(FusedAdvection, ActiveByDefaultForDirectFusedDouble)
{
    const auto basis = BSplineBasis::uniform(3, 64, 0.0, 1.0);
    BatchedAdvection1D adv(basis, uniform_velocities(5, -1.0, 1.0), 0.01);
    EXPECT_TRUE(adv.fused_active());
    ASSERT_TRUE(adv.plan().has_value());
    const AdvectionPlan& plan = *adv.plan();
    EXPECT_TRUE(plan.fusable());
    // The default version stages 8-column packs in every translation unit
    // (test_fused_advection_avx2 asserts the same under -mavx2).
    EXPECT_EQ(plan.pack_width(), 8);
    EXPECT_GT(plan.tile_cols(), 0u);
    EXPECT_EQ(plan.tile_cols()
                      % static_cast<std::size_t>(plan.pack_width()),
              0u);
}

TEST_F(FusedAdvection, OffTilePolicyStillStagesAtTheL2Width)
{
    // Off means "untiled" only for the FP64 builder: the plan must stage
    // whole coefficient columns, so it keeps the L2 width, not one pack.
    const auto basis = BSplineBasis::uniform(3, 64, 0.0, 1.0);
    const BatchedAdvection1D adv(basis, uniform_velocities(200, -1.0, 1.0),
                                 0.01);
    const core::SplineEvaluator evaluator(basis);
    core::SplineBuilder builder(basis, BuilderVersion::FusedSpmv);
    builder.set_tile_policy(TilePolicy::automatic());
    const AdvectionPlan automatic(builder, evaluator, adv.points(),
                                  adv.velocities(), adv.dt());
    builder.set_tile_policy(TilePolicy::off());
    const AdvectionPlan off(builder, evaluator, adv.points(),
                            adv.velocities(), adv.dt());
    ASSERT_TRUE(automatic.fusable());
    EXPECT_GT(automatic.tile_cols(),
              static_cast<std::size_t>(automatic.pack_width()));
    EXPECT_EQ(off.tile_cols(), automatic.tile_cols());
}

TEST_F(FusedAdvection, ConfigResolution)
{
    const auto basis = BSplineBasis::uniform(3, 64, 0.0, 1.0);
    const auto v = uniform_velocities(5, -1.0, 1.0);
    {
        // Baseline has no fused solve chain: transparent fallback.
        BatchedAdvection1D::Config cfg;
        cfg.version = BuilderVersion::Baseline;
        BatchedAdvection1D adv(basis, v, 0.01, cfg);
        EXPECT_FALSE(adv.fused_active());
    }
    {
        // The iterative method never fuses.
        BatchedAdvection1D::Config cfg;
        cfg.method = BatchedAdvection1D::Method::Iterative;
        BatchedAdvection1D adv(basis, v, 0.01, cfg);
        EXPECT_FALSE(adv.fused_active());
    }
}

TEST_F(FusedAdvection, ReducedPrecisionFallsBack)
{
    ScopedEnv mixed("PSPL_PRECISION", "mixed");
    const auto basis = BSplineBasis::uniform(3, 64, 0.0, 1.0);
    BatchedAdvection1D adv(basis, uniform_velocities(5, -1.0, 1.0), 0.01);
    EXPECT_FALSE(adv.fused_active());
    // The plan itself reports non-fusable for a reduced-precision builder.
    core::SplineBuilder builder(basis, BuilderVersion::FusedSpmv);
    AdvectionPlan plan(builder, core::SplineEvaluator(basis),
                       adv.points(), adv.velocities(), 0.01);
    EXPECT_FALSE(plan.fusable());
}

// ---------------------------------------------------------------------------
// Bitwise identity: the fused step must match the Algorithm 2 oracle
// (algorithm2_oracle.hpp) at Precision::Double to the last bit -- same
// solve ladder, same evaluation arithmetic, only the data movement
// differs. Swept over degree x grid x fused builder version, with an
// explicit tile narrow enough to force multiple tiles plus a ragged tail,
// and three consecutive steps to compound any divergence.
// ---------------------------------------------------------------------------

enum class Grid { UniformPeriodic, NonUniformPeriodic, Clamped };

BSplineBasis make_basis(int degree, Grid grid, std::size_t n)
{
    switch (grid) {
    case Grid::UniformPeriodic:
        return BSplineBasis::uniform(degree, n, 0.0, 1.0);
    case Grid::NonUniformPeriodic:
        return BSplineBasis::non_uniform(
                degree, bsplines::stretched_breaks(n, 0.0, 1.0, 0.3));
    case Grid::Clamped:
    default:
        return BSplineBasis::clamped_uniform(degree, n, 0.0, 1.0);
    }
}

class FusedIdentityParam
    : public ::testing::TestWithParam<std::tuple<int, Grid, BuilderVersion>>
{
protected:
    ScopedEnv m_precision{"PSPL_PRECISION", "double"};
    ScopedEnv m_tile{"PSPL_TILE", "12"}; // ragged: rounds up to the pack
};

TEST_P(FusedIdentityParam, MatchesUnfusedBitwise)
{
    const auto [degree, grid, version] = GetParam();
    const std::size_t nx = 96;
    const auto basis = make_basis(degree, grid, nx);
    const auto v = uniform_velocities(37, -1.5, 2.0);
    const double dt = 0.013;

    BatchedAdvection1D::Config fused_cfg;
    fused_cfg.version = version;
    BatchedAdvection1D fused(basis, v, dt, fused_cfg);
    ASSERT_TRUE(fused.fused_active());
    const test::Algorithm2Step plain(basis, version, v, dt);

    auto ff = initial_condition(fused);
    auto fp = clone(ff);
    for (int s = 0; s < 3; ++s) {
        fused.step(ff);
        plain.step(fp);
        for (std::size_t j = 0; j < fused.nv(); ++j) {
            for (std::size_t i = 0; i < fused.nx(); ++i) {
                ASSERT_EQ(ulp_distance(ff(j, i), fp(j, i)), 0u)
                        << "step " << s << " j=" << j << " i=" << i
                        << " fused=" << ff(j, i) << " plain=" << fp(j, i);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
        DegreesGridsVersions, FusedIdentityParam,
        ::testing::Combine(
                ::testing::Values(2, 3, 4, 5),
                ::testing::Values(Grid::UniformPeriodic,
                                  Grid::NonUniformPeriodic, Grid::Clamped),
                ::testing::Values(BuilderVersion::Fused,
                                  BuilderVersion::FusedSpmv,
                                  BuilderVersion::FusedSimd,
                                  BuilderVersion::FusedSpmvSimd)),
        [](const auto& info) {
            const int d = std::get<0>(info.param);
            const Grid g = std::get<1>(info.param);
            const BuilderVersion v = std::get<2>(info.param);
            std::string name = "deg" + std::to_string(d);
            name += g == Grid::UniformPeriodic      ? "_uniform"
                    : g == Grid::NonUniformPeriodic ? "_nonuniform"
                                                    : "_clamped";
            switch (v) {
            case BuilderVersion::Fused:
                name += "_fused";
                break;
            case BuilderVersion::FusedSpmv:
                name += "_spmv";
                break;
            case BuilderVersion::FusedSimd:
                name += "_fused_simd";
                break;
            default:
                name += "_spmv_simd";
                break;
            }
            return name;
        });

// Execution spaces: the fused pipeline must produce the same bits on every
// backend -- each batch row is owned by exactly one tile, and the per-row
// arithmetic has no cross-thread reduction.
template <class Exec>
class FusedExecTyped : public ::testing::Test
{
protected:
    ScopedEnv m_precision{"PSPL_PRECISION", "double"};
    ScopedEnv m_tile{"PSPL_TILE", "8"};
};

#if defined(PSPL_ENABLE_OPENMP)
using ExecSpaces = ::testing::Types<pspl::Serial, pspl::OpenMP, pspl::Threads>;
#else
using ExecSpaces = ::testing::Types<pspl::Serial, pspl::Threads>;
#endif
TYPED_TEST_SUITE(FusedExecTyped, ExecSpaces);

TYPED_TEST(FusedExecTyped, MatchesSerialUnfusedBitwise)
{
    const auto basis = BSplineBasis::uniform(3, 80, 0.0, 1.0);
    const auto v = uniform_velocities(29, -2.0, 2.0);
    const double dt = 0.011;

    BatchedAdvection1D fused(basis, v, dt);
    ASSERT_TRUE(fused.fused_active());
    const test::Algorithm2Step plain(basis, BuilderVersion::FusedSpmv, v, dt);

    auto ff = initial_condition(fused);
    auto fp = clone(ff);
    fused.template step<TypeParam>(ff);
    plain.template step<pspl::Serial>(fp);
    for (std::size_t j = 0; j < fused.nv(); ++j) {
        for (std::size_t i = 0; i < fused.nx(); ++i) {
            ASSERT_EQ(ulp_distance(ff(j, i), fp(j, i)), 0u)
                    << "j=" << j << " i=" << i;
        }
    }
}

// ---------------------------------------------------------------------------
// 2-D: the in-place Strang chain (the y pass reads and writes the columns of
// f through a transposed view, no physical transpose) must match the
// transpose-based Algorithm 2 chain bitwise -- the permutations are pure
// data movement. Covered: an even and an odd shape on the default fused
// operators, and a Baseline operator pair (Algorithm 2 inside each pass).
// ---------------------------------------------------------------------------

TEST_F(FusedAdvection, TwoDFusedChainMatchesUnfusedBitwise)
{
    const std::tuple<std::size_t, std::size_t, BuilderVersion> cases[] = {
            {48, 40, core::default_builder_version},
            {37, 29, core::default_builder_version},
            {48, 40, BuilderVersion::Baseline}};
    for (const auto& [nx, ny, version] : cases) {
        SCOPED_TRACE("nx=" + std::to_string(nx) + " ny=" + std::to_string(ny)
                     + " version=" + std::to_string(static_cast<int>(version)));
        const auto basis_x = BSplineBasis::uniform(3, nx, 0.0, 1.0);
        const auto basis_y = BSplineBasis::uniform(3, ny, 0.0, 1.0);
        // Rigid rotation about the domain center.
        const double omega = two_pi;
        View1D<double> vx("vx", ny);
        View1D<double> vy("vy", nx);
        {
            BatchedAdvection2D probe(basis_x, basis_y, vx, vy, 0.0);
            for (std::size_t j = 0; j < ny; ++j) {
                vx(j) = -omega * (probe.points_y()(j) - 0.5);
            }
            for (std::size_t i = 0; i < nx; ++i) {
                vy(i) = omega * (probe.points_x()(i) - 0.5);
            }
        }
        const double dt = 0.004;

        BatchedAdvection2D::Config cfg;
        cfg.version = version;
        BatchedAdvection2D fused(basis_x, basis_y, vx, vy, dt, cfg);
        ASSERT_EQ(fused.fused_active(), version != BuilderVersion::Baseline);
        // Strang oracle: x half step, transpose, y full step, transpose
        // back, x half step -- on the scalar FusedSpmv rung, which the
        // default SIMD chain matches bitwise.
        const BuilderVersion oracle = version == BuilderVersion::Baseline
                                              ? BuilderVersion::Baseline
                                              : BuilderVersion::FusedSpmv;
        const test::Algorithm2Step plain_x(basis_x, oracle, vx, 0.5 * dt);
        const test::Algorithm2Step plain_y(basis_y, oracle, vy, dt);
        View2D<double> ft("ft", nx, ny);

        View2D<double> ff("ff", ny, nx);
        for (std::size_t j = 0; j < ny; ++j) {
            for (std::size_t i = 0; i < nx; ++i) {
                const double x = fused.points_x()(i) - 0.5;
                const double y = fused.points_y()(j) - 0.5;
                ff(j, i) = std::exp(-40.0 * (x * x + y * y));
            }
        }
        auto fp = clone(ff);
        for (int s = 0; s < 2; ++s) {
            fused.step(ff);
            plain_x.step(fp);
            advection::transpose("oracle_transpose_xy", fp, ft);
            plain_y.step(ft);
            advection::transpose("oracle_transpose_yx", ft, fp);
            plain_x.step(fp);
            for (std::size_t j = 0; j < ny; ++j) {
                for (std::size_t i = 0; i < nx; ++i) {
                    ASSERT_EQ(ulp_distance(ff(j, i), fp(j, i)), 0u)
                            << "step " << s << " j=" << j << " i=" << i;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Column independence of the in-place cross-dimension pass: a NaN or an
// infinity in one x column of f, advected along v through a transposed
// view, changes only that column. 37 columns put column 19 inside a full
// 8-column pack and column 34 in the 5-column tail pack; the Baseline
// operator runs the Algorithm 2 interpolate with its strided scatter.
// ---------------------------------------------------------------------------

TEST_F(FusedAdvection, NonFiniteColumnLeavesOtherColumnsBitwiseUnchanged)
{
    const double poisons[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
    const std::size_t nx = 37;
    const std::size_t nv = 64;
    const auto basis_v = BSplineBasis::uniform(3, nv, -6.0, 6.0);
    for (const BuilderVersion version :
         {core::default_builder_version, BuilderVersion::Baseline}) {
        BatchedAdvection1D::Config cfg;
        cfg.version = version;
        const BatchedAdvection1D adv_v(
                basis_v, uniform_velocities(nx, -0.8, 1.1), 0.1, cfg);
        ASSERT_EQ(adv_v.fused_active(), version != BuilderVersion::Baseline);
        View2D<double> f0("f0", nv, nx);
        for (std::size_t j = 0; j < nv; ++j) {
            const double v = adv_v.points()(j);
            for (std::size_t i = 0; i < nx; ++i) {
                const double x = 0.3 * static_cast<double>(i);
                f0(j, i) = std::exp(-0.5 * v * v) * (1.0 + 0.1 * std::cos(x));
            }
        }
        auto clean = clone(f0);
        const auto clean_t = transposed_view(clean);
        adv_v.step_to(clean_t, clean_t);
        for (const std::size_t col : {std::size_t{19}, std::size_t{34}}) {
            for (const double poison : poisons) {
                auto f = clone(f0);
                f(nv / 2, col) = poison;
                const auto ft = transposed_view(f);
                adv_v.step_to(ft, ft);
                bool reached = false;
                for (std::size_t j = 0; j < nv; ++j) {
                    for (std::size_t i = 0; i < nx; ++i) {
                        if (i == col) {
                            reached = reached || !std::isfinite(f(j, i));
                            continue;
                        }
                        ASSERT_EQ(std::memcmp(&f(j, i), &clean(j, i),
                                              sizeof(double)),
                                  0)
                                << "version "
                                << static_cast<int>(version) << " poison="
                                << poison << " in column " << col << ": ("
                                << j << ", " << i << ") changed";
                    }
                }
                EXPECT_TRUE(reached)
                        << "the poison never reached column " << col;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lane independence: a NaN or an infinity in one row of f changes only that
// row of the advected block -- the other 7 rows of its 8-row pack and every
// other pack keep the bits of the clean step. 37 rows put row 19 inside a
// full pack and row 34 in the 5-row tail pack.
// ---------------------------------------------------------------------------

TEST_F(FusedAdvection, NonFiniteRowLeavesOtherRowsBitwiseUnchanged)
{
    const double poisons[] = {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
    for (const int degree : {3, 5}) {
        for (const Grid grid : {Grid::UniformPeriodic,
                                Grid::NonUniformPeriodic}) {
            const auto basis = make_basis(degree, grid, 64);
            const BatchedAdvection1D adv(
                    basis, uniform_velocities(37, -1.5, 2.0), 0.013);
            ASSERT_TRUE(adv.fused_active());
            ASSERT_EQ(adv.plan()->pack_width(), 8);
            auto clean = initial_condition(adv);
            const auto f0 = clone(clean);
            adv.step(clean);
            for (const std::size_t row : {std::size_t{19}, std::size_t{34}}) {
                for (const double poison : poisons) {
                    auto f = clone(f0);
                    f(row, adv.nx() / 2) = poison;
                    adv.step(f);
                    bool reached = false;
                    for (std::size_t j = 0; j < adv.nv(); ++j) {
                        for (std::size_t i = 0; i < adv.nx(); ++i) {
                            if (j == row) {
                                reached = reached || !std::isfinite(f(j, i));
                                continue;
                            }
                            ASSERT_EQ(std::memcmp(&f(j, i), &clean(j, i),
                                                  sizeof(double)),
                                      0)
                                    << "deg" << degree << " poison="
                                    << poison << " in row " << row << ": ("
                                    << j << ", " << i << ") changed";
                        }
                    }
                    EXPECT_TRUE(reached)
                            << "the poison never reached row " << row;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Zero-setup guarantee: once the first step sized the grow-only arena,
// repeated steps must not reallocate it.
// ---------------------------------------------------------------------------

TEST_F(FusedAdvection, RepeatedStepsDoNotReallocate)
{
    const auto basis = BSplineBasis::uniform(3, 64, 0.0, 1.0);
    BatchedAdvection1D adv(basis, uniform_velocities(33, -1.0, 1.0), 0.01);
    ASSERT_TRUE(adv.fused_active());
    auto f = initial_condition(adv);
    adv.step(f);
    const std::uint64_t gen = host_workspace_arena().generation();
    adv.step(f);
    adv.step(f);
    EXPECT_EQ(host_workspace_arena().generation(), gen);
}

// ---------------------------------------------------------------------------
// Shifted strip evaluation: the block kernel must agree with the scalar
// evaluator to the bit on every periodic basis, and the scalar path must
// equal direct per-point evaluation by construction.
// ---------------------------------------------------------------------------

TEST(EvaluateShifted, SimdFastPathMatchesScalarBitwise)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // Uniform and stretched periodic bases, degrees 1-5; 11 and 75 points
    // leave a tail after the last 8-foot block. The [0, 1] domain puts the
    // seam at a signed zero, the second one makes xmin and xmax shifts
    // distinct from 0 and length.
    std::vector<BSplineBasis> bases;
    for (const auto& [xmin, xmax] : {std::pair{0.0, 1.0}, {-0.75, 2.5}}) {
        for (int degree = 1; degree <= 5; ++degree) {
            for (const std::size_t n : {std::size_t{11}, std::size_t{75},
                                        std::size_t{1000}}) {
                bases.push_back(BSplineBasis::uniform(degree, n, xmin, xmax));
                bases.push_back(BSplineBasis::non_uniform(
                        degree, bsplines::stretched_breaks(n, xmin, xmax)));
            }
        }
    }
    for (const auto& basis : bases) {
        const std::size_t n = basis.nbasis();
        core::SplineEvaluator simd_eval(basis, core::EvaluatorVersion::Simd);
        core::SplineEvaluator scalar_eval(basis,
                                          core::EvaluatorVersion::Scalar);
        ASSERT_TRUE(simd_eval.shifted_simd_supported());

        View1D<double> coeffs("coeffs", n);
        for (std::size_t i = 0; i < n; ++i) {
            coeffs(i) = std::sin(0.7 * static_cast<double>(i))
                        + 0.3 * std::cos(1.3 * static_cast<double>(i));
        }
        const auto pts = basis.interpolation_points();
        View1D<double> greville("greville", n);
        View1D<double> special("special", n);
        for (std::size_t i = 0; i < n; ++i) {
            greville(i) = pts[i];
            special(i) = pts[i];
        }
        // Non-finite and signed-zero feet, inside the first block and in
        // the last point.
        special(1) = nan;
        special(3) = -0.0;
        special(4) = inf;
        special(6) = -inf;
        special(n - 1) = nan;

        const double xmax = basis.xmax();
        const double length = basis.length();
        const double shifts[] = {0.0,    1e-3,    -1e-3,        0.37,
                                 -0.37,  2.0,     -7.25,        1e6,
                                 length, -length, basis.xmin(), xmax,
                                 std::nextafter(xmax, 0.0)};
        View1D<double> out_simd("out_simd", n);
        View1D<double> out_scalar("out_scalar", n);
        for (const auto& points : {greville, special}) {
            for (const double shift : shifts) {
                simd_eval.evaluate_shifted(points, shift, coeffs,
                                           &out_simd(0));
                scalar_eval.evaluate_shifted(points, shift, coeffs,
                                             &out_scalar(0));
                for (std::size_t i = 0; i < n; ++i) {
                    // The scalar path is by construction the direct
                    // evaluation.
                    const auto direct = std::bit_cast<std::uint64_t>(
                            scalar_eval(points(i) - shift, coeffs));
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(out_scalar(i)),
                              direct);
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(out_simd(i)),
                              direct)
                            << (basis.is_uniform() ? "uniform" : "stretched")
                            << " [" << basis.xmin() << ", " << xmax
                            << "] degree " << basis.degree() << " n=" << n
                            << " shift=" << shift << " i=" << i
                            << " foot=" << points(i) - shift;
                }
            }
        }
    }
}

TEST(EvaluateShifted, ClampedBasisUsesScalarPath)
{
    const auto basis = BSplineBasis::clamped_uniform(3, 32, 0.0, 1.0);
    core::SplineEvaluator eval(basis, core::EvaluatorVersion::Simd);
    EXPECT_FALSE(eval.shifted_simd_supported());
    View1D<double> coeffs("coeffs", basis.nbasis());
    for (std::size_t i = 0; i < basis.nbasis(); ++i) {
        coeffs(i) = 1.0 + 0.1 * static_cast<double>(i);
    }
    const auto pts = basis.interpolation_points();
    View1D<double> points("points", basis.nbasis());
    for (std::size_t i = 0; i < basis.nbasis(); ++i) {
        points(i) = pts[i];
    }
    // A shift large enough to push feet outside the domain: they clamp.
    const double shift = 0.2;
    View1D<double> out("out", basis.nbasis());
    eval.evaluate_shifted(points, shift, coeffs, &out(0));
    for (std::size_t i = 0; i < basis.nbasis(); ++i) {
        ASSERT_EQ(out(i), eval(points(i) - shift, coeffs));
    }
}

} // namespace
