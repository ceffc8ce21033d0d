// Tests for Hermite-boundary splines (clamped odd degree): exactness for
// polynomials, prescribed boundary derivatives, convergence order, and the
// higher-order basis derivative machinery behind them.
#include "bsplines/knots.hpp"
#include "core/hermite_builder.hpp"
#include "core/matrix_structure.hpp"
#include "core/spline_evaluator.hpp"
#include "parallel/deep_copy.hpp"
#include "parallel/subview.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

namespace {

using namespace pspl;
using bsplines::BSplineBasis;
using core::HermiteSplineBuilder;
using core::SplineEvaluator;

// ---------------------------------------------------------------------------
// eval_deriv_order
// ---------------------------------------------------------------------------

TEST(DerivOrder, OrderZeroIsBasisEval)
{
    const auto basis = BSplineBasis::uniform(4, 16, 0.0, 1.0);
    double v1[6];
    double v2[6];
    const long j1 = basis.eval_basis(0.321, v1);
    const long j2 = basis.eval_deriv_order(0.321, 0, v2);
    EXPECT_EQ(j1, j2);
    for (int r = 0; r <= 4; ++r) {
        EXPECT_DOUBLE_EQ(v1[r], v2[r]);
    }
}

TEST(DerivOrder, OrderOneMatchesEvalDeriv)
{
    for (const int degree : {2, 3, 5}) {
        const auto basis = BSplineBasis::uniform(degree, 20, 0.0, 2.0);
        double v1[8];
        double v2[8];
        const double x = 0.7731;
        const long j1 = basis.eval_deriv(x, v1);
        const long j2 = basis.eval_deriv_order(x, 1, v2);
        EXPECT_EQ(j1, j2);
        for (int r = 0; r <= degree; ++r) {
            EXPECT_NEAR(v1[r], v2[r], 1e-11) << "degree " << degree;
        }
    }
}

TEST(DerivOrder, SecondDerivativeMatchesFiniteDifference)
{
    const auto basis = BSplineBasis::uniform(5, 24, 0.0, 1.0);
    double d2[8];
    double vp[8];
    double vm[8];
    double v0[8];
    const double h = 1e-5;
    const double x = 0.3571; // away from break points
    const long j = basis.eval_deriv_order(x, 2, d2);
    const long jp = basis.eval_basis(x + h, vp);
    const long jm = basis.eval_basis(x - h, vm);
    const long j0 = basis.eval_basis(x, v0);
    ASSERT_EQ(j, j0);
    ASSERT_EQ(jp, jm);
    ASSERT_EQ(jp, j0);
    for (int r = 0; r <= 5; ++r) {
        const double fd = (vp[r] - 2.0 * v0[r] + vm[r]) / (h * h);
        EXPECT_NEAR(d2[r], fd, 5e-3) << "r=" << r;
    }
}

TEST(DerivOrder, DerivativesSumToZero)
{
    // Partition of unity differentiates to zero for every order >= 1.
    const auto basis = BSplineBasis::clamped_uniform(5, 16, 0.0, 1.0);
    for (const int m : {1, 2}) {
        for (int s = 1; s < 30; ++s) {
            const double x = static_cast<double>(s) / 31.0;
            double dv[8];
            basis.eval_deriv_order(x, m, dv);
            double sum = 0.0;
            for (int r = 0; r <= 5; ++r) {
                sum += dv[r];
            }
            EXPECT_NEAR(sum, 0.0, 1e-8) << "m=" << m << " x=" << x;
        }
    }
}

// ---------------------------------------------------------------------------
// HermiteSplineBuilder
// ---------------------------------------------------------------------------

class HermiteParam : public ::testing::TestWithParam<std::tuple<int, bool>>
{
protected:
    BSplineBasis make(std::size_t ncells) const
    {
        const auto [degree, uniform] = GetParam();
        if (uniform) {
            return BSplineBasis::clamped_uniform(degree, ncells, 0.0, 2.0);
        }
        return BSplineBasis::clamped_non_uniform(
                degree, bsplines::stretched_breaks(ncells, 0.0, 2.0, 0.4));
    }
};

TEST_P(HermiteParam, RhsLayoutAndConditionCounts)
{
    const auto [degree, uniform] = GetParam();
    (void)uniform;
    const auto basis = make(20);
    HermiteSplineBuilder builder(basis);
    EXPECT_EQ(builder.nderivs(),
              static_cast<std::size_t>((degree - 1) / 2));
    EXPECT_EQ(builder.value_points().size(), 21u);
    EXPECT_EQ(2 * builder.nderivs() + 21u, basis.nbasis());
    // No periodic corners in the Hermite matrix.
    EXPECT_EQ(builder.solver().device_data().k, 0u);
}

TEST_P(HermiteParam, ReproducesPolynomialsExactly)
{
    // A degree-p spline space contains all polynomials of degree <= p on a
    // clamped basis; Hermite interpolation of such a polynomial (values +
    // exact derivatives) must reproduce it to round-off.
    const auto [degree, uniform] = GetParam();
    (void)uniform;
    const auto basis = make(12);
    HermiteSplineBuilder builder(basis);
    auto poly = [&](double x, int m) {
        // f = x^degree + 2x^2 - x + 1 and its derivatives.
        double value = 0.0;
        switch (m) {
        case 0:
            value = std::pow(x, degree) + 2.0 * x * x - x + 1.0;
            break;
        case 1:
            value = degree * std::pow(x, degree - 1) + 4.0 * x - 1.0;
            break;
        case 2:
            value = degree * (degree - 1) * std::pow(x, degree - 2) + 4.0;
            break;
        default:
            value = degree * (degree - 1) * (degree - 2)
                    * std::pow(x, degree - 3);
            break;
        }
        return value;
    };
    View2D<double> b("b", basis.nbasis(), 1);
    auto col = subview(b, ALL, std::size_t{0});
    builder.fill_rhs(poly, col);
    builder.build_inplace(b);

    SplineEvaluator eval(basis);
    for (int s = 0; s <= 200; ++s) {
        const double x = 2.0 * static_cast<double>(s) / 200.0;
        EXPECT_NEAR(eval(x, col), poly(x, 0), 1e-9) << "x=" << x;
    }
    // Boundary derivatives are honoured exactly.
    EXPECT_NEAR(eval.deriv(0.0, col), poly(0.0, 1), 1e-9);
    EXPECT_NEAR(eval.deriv(2.0, col), poly(2.0, 1), 1e-9);
}

TEST_P(HermiteParam, InterpolatesValuesAtBreakPoints)
{
    const auto basis = make(24);
    HermiteSplineBuilder builder(basis);
    auto f = [](double x, int m) {
        switch (m) {
        case 0:
            return std::sin(2.0 * x) + 0.3 * x;
        case 1:
            return 2.0 * std::cos(2.0 * x) + 0.3;
        case 2:
            return -4.0 * std::sin(2.0 * x);
        default:
            return -8.0 * std::cos(2.0 * x);
        }
    };
    View2D<double> b("b", basis.nbasis(), 1);
    auto col = subview(b, ALL, std::size_t{0});
    builder.fill_rhs(f, col);
    builder.build_inplace(b);
    SplineEvaluator eval(basis);
    for (const double x : builder.value_points()) {
        EXPECT_NEAR(eval(x, col), f(x, 0), 1e-10);
    }
    EXPECT_NEAR(eval.deriv(basis.xmin(), col), f(basis.xmin(), 1), 1e-9);
    EXPECT_NEAR(eval.deriv(basis.xmax(), col), f(basis.xmax(), 1), 1e-9);
}

TEST_P(HermiteParam, ConvergesAtExpectedOrder)
{
    const auto [degree, uniform] = GetParam();
    auto max_err = [&](std::size_t ncells) {
        const auto basis =
                uniform ? BSplineBasis::clamped_uniform(degree, ncells, 0.0,
                                                        2.0)
                        : BSplineBasis::clamped_non_uniform(
                                  degree, bsplines::stretched_breaks(
                                                  ncells, 0.0, 2.0, 0.4));
        HermiteSplineBuilder builder(basis);
        auto f = [](double x, int m) {
            switch (m) {
            case 0:
                return std::exp(-x) * std::sin(3.0 * x);
            case 1:
                return std::exp(-x)
                       * (3.0 * std::cos(3.0 * x) - std::sin(3.0 * x));
            case 2:
                return std::exp(-x)
                       * (-6.0 * std::cos(3.0 * x) - 8.0 * std::sin(3.0 * x));
            default:
                return 0.0;
            }
        };
        View2D<double> b("b", basis.nbasis(), 1);
        auto col = subview(b, ALL, std::size_t{0});
        builder.fill_rhs(f, col);
        builder.build_inplace(b);
        SplineEvaluator eval(basis);
        double err = 0.0;
        for (int s = 0; s <= 1500; ++s) {
            const double x = 2.0 * static_cast<double>(s) / 1500.0;
            err = std::max(err, std::abs(eval(x, col) - f(x, 0)));
        }
        return err;
    };
    const double e1 = max_err(24);
    const double e2 = max_err(48);
    EXPECT_GT(e1 / e2, std::pow(2.0, degree + 1) / 4.0)
            << "e1=" << e1 << " e2=" << e2;
}

TEST_P(HermiteParam, BatchedColumnsSolveIndependently)
{
    const auto basis = make(16);
    HermiteSplineBuilder builder(basis);
    const std::size_t batch = 6;
    View2D<double> b("b", basis.nbasis(), batch);
    for (std::size_t j = 0; j < batch; ++j) {
        const double phase = 0.2 * static_cast<double>(j);
        auto col = subview(b, ALL, j);
        builder.fill_rhs(
                [&](double x, int m) {
                    return m == 0 ? std::cos(x + phase)
                           : m == 1 ? -std::sin(x + phase)
                           : m == 2 ? -std::cos(x + phase)
                                    : std::sin(x + phase);
                },
                col);
    }
    // Reference: column 3 solved alone.
    View2D<double> one("one", basis.nbasis(), 1);
    for (std::size_t i = 0; i < basis.nbasis(); ++i) {
        one(i, 0) = b(i, 3);
    }
    builder.build_inplace(b);
    builder.build_inplace(one);
    for (std::size_t i = 0; i < basis.nbasis(); ++i) {
        EXPECT_DOUBLE_EQ(b(i, 3), one(i, 0));
    }
}

INSTANTIATE_TEST_SUITE_P(OddDegrees, HermiteParam,
                         ::testing::Combine(::testing::Values(3, 5),
                                            ::testing::Bool()),
                         [](const auto& info) {
                             const int d = std::get<0>(info.param);
                             const bool u = std::get<1>(info.param);
                             return std::string("deg") + std::to_string(d)
                                    + (u ? "_uniform" : "_nonuniform");
                         });

TEST(HermiteBuilder, ReportsRefinementStatsOfTheLastBuild)
{
    for (const int degree : {3, 5}) {
        const auto basis = BSplineBasis::clamped_uniform(degree, 40, 0.0, 1.0);
        HermiteSplineBuilder builder(basis);
        const std::size_t batch = 37;
        View2D<double> b("b", basis.nbasis(), batch);
        const auto fill = [&] {
            for (std::size_t j = 0; j < batch; ++j) {
                const double phase = 0.1 * static_cast<double>(j);
                builder.fill_rhs(
                        [&](double x, int m) {
                            return m == 0 ? std::cos(x + phase)
                                   : m == 1 ? -std::sin(x + phase)
                                   : m == 2 ? -std::cos(x + phase)
                                            : std::sin(x + phase);
                        },
                        subview(b, ALL, j));
            }
        };
        builder.set_precision(core::Precision::Mixed);
        fill();
        builder.build_inplace(b);
        const core::RefinementStats mixed = builder.last_refinement_stats();
        EXPECT_GT(mixed.tiles, 0u) << "deg" << degree;
        EXPECT_LE(mixed.refine_iters, 3) << "deg" << degree;

        // A Double build resets the record: it ran no refinement.
        builder.set_precision(core::Precision::Double);
        fill();
        builder.build_inplace(b);
        const core::RefinementStats dbl = builder.last_refinement_stats();
        EXPECT_EQ(dbl.refine_iters, 0) << "deg" << degree;
        EXPECT_EQ(dbl.tiles, 0u) << "deg" << degree;
        EXPECT_EQ(dbl.fallback_tiles, 0u) << "deg" << degree;
    }
}

TEST(HermiteBuilder, Rank3BuildMatchesSliceBySliceBitwise)
{
    // A (n, b1, b2) block is b1 rank-2 solves of (n, b2) slices: each
    // slice must come out bitwise as if built on its own.
    for (const int degree : {3, 5}) {
        const auto basis = BSplineBasis::clamped_uniform(degree, 24, 0.0, 2.0);
        HermiteSplineBuilder builder(basis);
        const std::size_t n = basis.nbasis();
        const std::size_t b1 = 3;
        const std::size_t b2 = 11;
        View3D<double> block("block", n, b1, b2);
        for (std::size_t i = 0; i < b1; ++i) {
            for (std::size_t j = 0; j < b2; ++j) {
                const double phase = 0.1 * static_cast<double>(i * b2 + j);
                builder.fill_rhs(
                        [&](double x, int m) {
                            return m == 0 ? std::cos(x + phase)
                                   : m == 1 ? -std::sin(x + phase)
                                   : m == 2 ? -std::cos(x + phase)
                                            : std::sin(x + phase);
                        },
                        subview(block, ALL, i, j));
            }
        }
        std::vector<View2D<double>> slices;
        for (std::size_t i = 0; i < b1; ++i) {
            slices.push_back(clone(subview(block, ALL, i, ALL)));
            builder.build_inplace(slices.back());
        }
        builder.build_inplace(block);
        for (std::size_t i = 0; i < b1; ++i) {
            for (std::size_t r = 0; r < n; ++r) {
                for (std::size_t j = 0; j < b2; ++j) {
                    ASSERT_EQ(block(r, i, j), slices[i](r, j))
                            << "deg" << degree << " slice " << i << " (" << r
                            << ", " << j << ")";
                }
            }
        }
    }
}

TEST(HermiteBuilder, RejectsPeriodicAndEvenDegree)
{
    const auto periodic = BSplineBasis::uniform(3, 16, 0.0, 1.0);
    EXPECT_DEATH(HermiteSplineBuilder{periodic}, "clamped");
    const auto even = BSplineBasis::clamped_uniform(4, 16, 0.0, 1.0);
    EXPECT_DEATH(HermiteSplineBuilder{even}, "odd");
}

} // namespace
