// Property tests for the periodic B-spline basis: partition of unity,
// non-negativity, locality, derivative consistency, Greville points and
// knot bookkeeping, swept over degrees and uniform/non-uniform grids; and
// the shortcut paths of wrap, find_cell and basis_index against the plain
// formulas they must reproduce exactly.
#include "bsplines/basis.hpp"
#include "bsplines/knots.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <tuple>
#include <vector>

namespace {

using pspl::bsplines::BSplineBasis;
using pspl::bsplines::refined_breaks;
using pspl::bsplines::stretched_breaks;
using pspl::bsplines::uniform_breaks;

class BasisParam
    : public ::testing::TestWithParam<std::tuple<int, bool, std::size_t>>
{
protected:
    BSplineBasis make() const
    {
        const auto [degree, uniform, ncells] = GetParam();
        if (uniform) {
            return BSplineBasis::uniform(degree, ncells, 0.0, 2.0);
        }
        return BSplineBasis::non_uniform(
                degree, stretched_breaks(ncells, 0.0, 2.0, 0.5));
    }
};

TEST_P(BasisParam, PartitionOfUnity)
{
    const auto basis = make();
    std::vector<double> vals(static_cast<std::size_t>(basis.degree()) + 1);
    for (int s = 0; s < 200; ++s) {
        const double x = 0.011 * static_cast<double>(s);
        basis.eval_basis(x, vals.data());
        double sum = 0.0;
        for (const double v : vals) {
            EXPECT_GE(v, -1e-14);
            EXPECT_LE(v, 1.0 + 1e-14);
            sum += v;
        }
        EXPECT_NEAR(sum, 1.0, 1e-12) << "x=" << x;
    }
}

TEST_P(BasisParam, DerivativesSumToZero)
{
    const auto basis = make();
    std::vector<double> dvals(static_cast<std::size_t>(basis.degree()) + 1);
    for (int s = 0; s < 100; ++s) {
        const double x = 0.0199 * static_cast<double>(s);
        basis.eval_deriv(x, dvals.data());
        double sum = 0.0;
        for (const double v : dvals) {
            sum += v;
        }
        EXPECT_NEAR(sum, 0.0, 1e-10) << "x=" << x;
    }
}

TEST_P(BasisParam, DerivativeMatchesFiniteDifference)
{
    const auto basis = make();
    const std::size_t np = static_cast<std::size_t>(basis.degree()) + 1;
    std::vector<double> vp(np);
    std::vector<double> vm(np);
    std::vector<double> dv(np);
    const double h = 1e-6;
    for (int s = 1; s < 40; ++s) {
        // Stay away from break points where the FD stencil straddles cells
        // of reduced smoothness for low degrees.
        const double x = 0.05 * static_cast<double>(s) + 0.013;
        const long jd = basis.eval_deriv(x, dv.data());
        const long jp = basis.eval_basis(x + h, vp.data());
        const long jm = basis.eval_basis(x - h, vm.data());
        if (jp != jm || jp != jd) {
            continue; // stencil crossed a cell boundary; skip this point
        }
        for (std::size_t r = 0; r < np; ++r) {
            const double fd = (vp[r] - vm[r]) / (2.0 * h);
            EXPECT_NEAR(dv[r], fd, 1e-5) << "x=" << x << " r=" << r;
        }
    }
}

TEST_P(BasisParam, GrevillePointsLieInDomain)
{
    const auto basis = make();
    const auto pts = basis.interpolation_points();
    EXPECT_EQ(pts.size(), basis.nbasis());
    for (const double p : pts) {
        EXPECT_GE(p, basis.xmin());
        EXPECT_LT(p, basis.xmax());
    }
}

TEST_P(BasisParam, FindCellIsConsistentWithBreaks)
{
    const auto basis = make();
    for (int s = 0; s < 300; ++s) {
        const double x = basis.xmin()
                         + (basis.length() * static_cast<double>(s)) / 300.0;
        const std::size_t c = basis.find_cell(x);
        ASSERT_LT(c, basis.ncells());
        EXPECT_GE(x, basis.break_point(c) - 1e-14);
        EXPECT_LT(x, basis.break_point(c + 1) + 1e-14);
    }
}

TEST_P(BasisParam, WrapIsPeriodic)
{
    const auto basis = make();
    for (int s = 0; s < 50; ++s) {
        const double x = basis.xmin() + 0.037 * static_cast<double>(s);
        const double w = basis.wrap(x);
        EXPECT_GE(w, basis.xmin());
        EXPECT_LT(w, basis.xmax());
        EXPECT_NEAR(basis.wrap(x + basis.length()), w, 1e-12);
        EXPECT_NEAR(basis.wrap(x - 3.0 * basis.length()), w, 1e-11);
    }
}

TEST_P(BasisParam, BasisIsPeriodic)
{
    const auto basis = make();
    const std::size_t np = static_cast<std::size_t>(basis.degree()) + 1;
    std::vector<double> v1(np);
    std::vector<double> v2(np);
    for (int s = 0; s < 60; ++s) {
        const double x = basis.xmin() + 0.031 * static_cast<double>(s);
        const long j1 = basis.eval_basis(x, v1.data());
        const long j2 = basis.eval_basis(x + basis.length(), v2.data());
        EXPECT_EQ(j1, j2);
        for (std::size_t r = 0; r < np; ++r) {
            EXPECT_NEAR(v1[r], v2[r], 1e-12);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
        DegreesAndGrids, BasisParam,
        ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7),
                           ::testing::Bool(),
                           ::testing::Values(std::size_t{16},
                                             std::size_t{37})),
        [](const auto& info) {
            const int d = std::get<0>(info.param);
            const bool u = std::get<1>(info.param);
            const std::size_t n = std::get<2>(info.param);
            return std::string("deg") + std::to_string(d)
                   + (u ? "_uniform_" : "_nonuniform_") + std::to_string(n);
        });

TEST(Basis, UniformCubicAtKnotsGivesClassicWeights)
{
    // Degree-3 uniform basis evaluated at a knot: [1/6, 4/6, 1/6, 0].
    const auto basis = BSplineBasis::uniform(3, 10, 0.0, 10.0);
    double vals[4];
    basis.eval_basis(4.0, vals);
    EXPECT_NEAR(vals[0], 1.0 / 6.0, 1e-13);
    EXPECT_NEAR(vals[1], 4.0 / 6.0, 1e-13);
    EXPECT_NEAR(vals[2], 1.0 / 6.0, 1e-13);
    EXPECT_NEAR(vals[3], 0.0, 1e-13);
}

TEST(Basis, UniformQuinticAtKnotsGivesClassicWeights)
{
    // Degree-5 uniform basis at a knot: [1, 26, 66, 26, 1]/120 and a zero.
    const auto basis = BSplineBasis::uniform(5, 16, 0.0, 16.0);
    double vals[6];
    basis.eval_basis(8.0, vals);
    EXPECT_NEAR(vals[0], 1.0 / 120.0, 1e-13);
    EXPECT_NEAR(vals[1], 26.0 / 120.0, 1e-13);
    EXPECT_NEAR(vals[2], 66.0 / 120.0, 1e-13);
    EXPECT_NEAR(vals[3], 26.0 / 120.0, 1e-13);
    EXPECT_NEAR(vals[4], 1.0 / 120.0, 1e-13);
    EXPECT_NEAR(vals[5], 0.0, 1e-13);
}

TEST(Basis, KnotsExtendPeriodically)
{
    const auto b = BSplineBasis::non_uniform(
            3, stretched_breaks(8, 0.0, 1.0, 0.4));
    const double length = 1.0;
    for (int j = 1; j <= 3; ++j) {
        EXPECT_NEAR(b.knot(-j), b.knot(static_cast<long>(b.ncells()) - j)
                                        - length,
                    1e-14);
        EXPECT_NEAR(b.knot(static_cast<long>(b.ncells()) + j),
                    b.knot(j) + length, 1e-14);
    }
}

TEST(Basis, RejectsInvalidConfigurations)
{
    EXPECT_DEATH(BSplineBasis::uniform(3, 2, 0.0, 1.0), "ncells > degree");
    EXPECT_DEATH(BSplineBasis::uniform(0, 8, 0.0, 1.0), "unsupported degree");
    std::vector<double> decreasing = {0.0, 0.5, 0.4, 1.0};
    EXPECT_DEATH(BSplineBasis::non_uniform(1, decreasing),
                 "strictly increasing");
}

TEST(Basis, PeriodicBasisIndexMatchesModulo)
{
    for (const std::size_t ncells : {std::size_t{4}, std::size_t{11},
                                     std::size_t{75}}) {
        const auto basis = BSplineBasis::uniform(3, ncells, 0.0, 1.0);
        const auto n = static_cast<long>(ncells);
        for (long j = -3 * n; j <= 3 * n; ++j) {
            ASSERT_EQ(basis.basis_index(j),
                      static_cast<std::size_t>(((j % n) + n) % n))
                    << "n=" << n << " j=" << j;
        }
    }
}

/// The periodic wrap as a plain floor formula, with no shortcut.
double floor_wrap(const BSplineBasis& basis, double x)
{
    const double length = basis.xmax() - basis.xmin();
    double t = x - length * std::floor((x - basis.xmin()) / length);
    if (t >= basis.xmax()) {
        t = basis.xmin();
    }
    return t;
}

TEST(Basis, WrapMatchesFloorFormulaAtTheSeam)
{
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<BSplineBasis> bases = {
            BSplineBasis::uniform(3, 16, 0.0, 1.0),
            BSplineBasis::uniform(2, 37, 0.0, 2.0 * std::numbers::pi),
            BSplineBasis::non_uniform(5, stretched_breaks(29, -1.25, 2.5)),
            BSplineBasis::uniform(4, 12, -3.0, -0.1),
    };
    for (const auto& basis : bases) {
        const double xmin = basis.xmin();
        const double xmax = basis.xmax();
        const double length = xmax - xmin;
        std::vector<double> xs = {
                xmin,
                -0.0,
                0.0,
                std::nextafter(xmin, inf),
                std::nextafter(xmin, -inf),
                xmax,
                std::nextafter(xmax, inf),
                std::nextafter(xmax, -inf),
                1e300,
                -1e300,
                std::numeric_limits<double>::quiet_NaN(),
                inf,
                -inf,
        };
        for (int k = 1; k <= 5; ++k) {
            const double kl = static_cast<double>(k) * length;
            xs.insert(xs.end(), {kl, -kl, xmin + kl, xmin - kl, xmax + kl,
                                 xmax - kl});
        }
        // Walk 40 ulps either side of xmax, where x - xmin divides to 1.
        double below = xmax;
        double above = xmax;
        for (int s = 0; s < 40; ++s) {
            below = std::nextafter(below, -inf);
            above = std::nextafter(above, inf);
            xs.push_back(below);
            xs.push_back(above);
        }
        for (const double x : xs) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(basis.wrap(x)),
                      std::bit_cast<std::uint64_t>(floor_wrap(basis, x)))
                    << "xmin=" << xmin << " x=" << x;
        }
    }
}

TEST(Basis, HintedFindCellMatchesSearch)
{
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<BSplineBasis> bases = {
            BSplineBasis::uniform(3, 13, 0.0, 1.0),
            BSplineBasis::non_uniform(3, stretched_breaks(13, 0.0, 1.0)),
            BSplineBasis::clamped_uniform(2, 9, -1.0, 1.0),
            BSplineBasis::clamped_non_uniform(
                    4, stretched_breaks(9, -1.0, 1.0, 0.7)),
    };
    for (const auto& basis : bases) {
        std::vector<double> xs = {std::numeric_limits<double>::quiet_NaN(),
                                  inf, -inf, basis.xmin() - 0.5,
                                  basis.xmax() + 0.5};
        for (std::size_t c = 0; c <= basis.ncells(); ++c) {
            const double b = basis.break_point(c);
            xs.insert(xs.end(),
                      {b, std::nextafter(b, -inf), std::nextafter(b, inf)});
        }
        for (int s = 0; s < 97; ++s) {
            xs.push_back(basis.xmin()
                         + basis.length() * static_cast<double>(s) / 97.0);
        }
        for (const double x : xs) {
            const std::size_t want = basis.find_cell(x);
            for (std::size_t hint = 0; hint < basis.ncells(); ++hint) {
                ASSERT_EQ(basis.find_cell(x, hint), want)
                        << "x=" << x << " hint=" << hint;
            }
        }
    }
}

TEST(Knots, UniformBreaksAreEquispaced)
{
    const auto b = uniform_breaks(10, -1.0, 1.0);
    ASSERT_EQ(b.size(), 11u);
    EXPECT_DOUBLE_EQ(b.front(), -1.0);
    EXPECT_DOUBLE_EQ(b.back(), 1.0);
    for (std::size_t i = 0; i + 1 < b.size(); ++i) {
        EXPECT_NEAR(b[i + 1] - b[i], 0.2, 1e-14);
    }
}

TEST(Knots, StretchedBreaksAreMonotoneAndSpanDomain)
{
    const auto b = stretched_breaks(32, 0.0, 2.0 * std::numbers::pi, 0.7);
    ASSERT_EQ(b.size(), 33u);
    EXPECT_DOUBLE_EQ(b.front(), 0.0);
    EXPECT_DOUBLE_EQ(b.back(), 2.0 * std::numbers::pi);
    for (std::size_t i = 0; i + 1 < b.size(); ++i) {
        EXPECT_GT(b[i + 1], b[i]);
    }
    // strength 0 reproduces the uniform grid
    const auto u = stretched_breaks(8, 0.0, 1.0, 0.0);
    const auto ref = uniform_breaks(8, 0.0, 1.0);
    for (std::size_t i = 0; i < u.size(); ++i) {
        EXPECT_NEAR(u[i], ref[i], 1e-14);
    }
}

TEST(Knots, RefinedBreaksConcentrateCellsNearX0)
{
    const std::size_t n = 64;
    const auto b = refined_breaks(n, 0.0, 1.0, 0.75, 8.0);
    ASSERT_EQ(b.size(), n + 1);
    for (std::size_t i = 0; i + 1 < b.size(); ++i) {
        EXPECT_GT(b[i + 1], b[i]);
    }
    // Smallest cell should be near x0=0.75 and much smaller than the edge
    // cells.
    double min_dx = 1e9;
    std::size_t argmin = 0;
    for (std::size_t i = 0; i + 1 < b.size(); ++i) {
        const double dx = b[i + 1] - b[i];
        if (dx < min_dx) {
            min_dx = dx;
            argmin = i;
        }
    }
    EXPECT_NEAR(0.5 * (b[argmin] + b[argmin + 1]), 0.75, 0.1);
    EXPECT_LT(min_dx * 3.0, b[1] - b[0]);
}

} // namespace
