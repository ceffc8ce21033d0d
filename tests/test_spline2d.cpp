// Tests for 2-D tensor-product splines: interpolation property,
// separability, mixed boundaries/degrees, convergence, derivatives and
// quadrature.
#include "core/spline_builder.hpp"
#include "core/spline_builder_2d.hpp"
#include "core/spline_evaluator.hpp"
#include "core/spline_evaluator_2d.hpp"
#include "parallel/deep_copy.hpp"
#include "parallel/subview.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <numbers>
#include <tuple>

namespace {

using namespace pspl;
using bsplines::BSplineBasis;
using core::SplineBuilder2D;
using core::SplineEvaluator2D;

constexpr double two_pi = 2.0 * std::numbers::pi;

double f2(double x, double y)
{
    return std::sin(two_pi * x) * std::cos(two_pi * y)
           + 0.3 * std::cos(two_pi * (x + 2.0 * y));
}

View2D<double> sample_2d(const BSplineBasis& bx, const BSplineBasis& by,
                         double (*f)(double, double))
{
    const auto px = bx.interpolation_points();
    const auto py = by.interpolation_points();
    View2D<double> v("v", bx.nbasis(), by.nbasis());
    for (std::size_t i = 0; i < bx.nbasis(); ++i) {
        for (std::size_t j = 0; j < by.nbasis(); ++j) {
            v(i, j) = f(px[i], py[j]);
        }
    }
    return v;
}

class Spline2DParam
    : public ::testing::TestWithParam<std::tuple<int, int, bool>>
{
protected:
    BSplineBasis make_x(std::size_t n) const
    {
        return BSplineBasis::uniform(std::get<0>(GetParam()), n, 0.0, 1.0);
    }
    BSplineBasis make_y(std::size_t n) const
    {
        const int dy = std::get<1>(GetParam());
        if (std::get<2>(GetParam())) {
            return BSplineBasis::clamped_uniform(dy, n, 0.0, 1.0);
        }
        return BSplineBasis::uniform(dy, n, 0.0, 1.0);
    }
};

TEST_P(Spline2DParam, InterpolationPropertyHolds)
{
    const auto bx = make_x(24);
    const auto by = make_y(20);
    SplineBuilder2D builder(bx, by);
    auto v = sample_2d(bx, by, f2);
    const auto values = clone(v);
    builder.build_inplace(v);

    SplineEvaluator2D eval(bx, by);
    const auto px = bx.interpolation_points();
    const auto py = by.interpolation_points();
    for (std::size_t i = 0; i < bx.nbasis(); i += 3) {
        for (std::size_t j = 0; j < by.nbasis(); j += 2) {
            EXPECT_NEAR(eval(px[i], py[j], v), values(i, j), 1e-10)
                    << "i=" << i << " j=" << j;
        }
    }
}

TEST_P(Spline2DParam, ConstantReproduction)
{
    const auto bx = make_x(16);
    const auto by = make_y(12);
    SplineBuilder2D builder(bx, by);
    View2D<double> v("v", bx.nbasis(), by.nbasis());
    deep_copy(v, 4.25);
    builder.build_inplace(v);
    SplineEvaluator2D eval(bx, by);
    for (int s = 0; s < 25; ++s) {
        const double x = 0.04 * static_cast<double>(s) + 0.001;
        const double y = 1.0 - x;
        EXPECT_NEAR(eval(x, y, v), 4.25, 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(
        Mixes, Spline2DParam,
        ::testing::Combine(::testing::Values(3, 5), ::testing::Values(3, 4),
                           ::testing::Bool()),
        [](const auto& info) {
            return "dx" + std::to_string(std::get<0>(info.param)) + "_dy"
                   + std::to_string(std::get<1>(info.param))
                   + (std::get<2>(info.param) ? "_clampedY" : "_periodicY");
        });

TEST(Spline2D, SeparableFunctionMatchesProductOf1D)
{
    // For f(x, y) = g(x) h(y), the tensor-product coefficients are the
    // outer product of the 1-D coefficients.
    const auto bx = BSplineBasis::uniform(3, 20, 0.0, 1.0);
    const auto by = BSplineBasis::uniform(4, 16, 0.0, 1.0);
    auto g = [](double x) { return std::sin(two_pi * x) + 2.0; };
    auto h = [](double y) { return std::cos(two_pi * y) - 0.5; };

    core::SplineBuilder b1x(bx);
    core::SplineBuilder b1y(by);
    View2D<double> cx("cx", bx.nbasis(), 1);
    View2D<double> cy("cy", by.nbasis(), 1);
    const auto px = bx.interpolation_points();
    const auto py = by.interpolation_points();
    for (std::size_t i = 0; i < bx.nbasis(); ++i) {
        cx(i, 0) = g(px[i]);
    }
    for (std::size_t j = 0; j < by.nbasis(); ++j) {
        cy(j, 0) = h(py[j]);
    }
    b1x.build_inplace(cx);
    b1y.build_inplace(cy);

    SplineBuilder2D b2(bx, by);
    View2D<double> v("v", bx.nbasis(), by.nbasis());
    for (std::size_t i = 0; i < bx.nbasis(); ++i) {
        for (std::size_t j = 0; j < by.nbasis(); ++j) {
            v(i, j) = g(px[i]) * h(py[j]);
        }
    }
    b2.build_inplace(v);

    for (std::size_t i = 0; i < bx.nbasis(); ++i) {
        for (std::size_t j = 0; j < by.nbasis(); ++j) {
            EXPECT_NEAR(v(i, j), cx(i, 0) * cy(j, 0), 1e-11);
        }
    }
}

TEST(Spline2D, ConvergesAtMinDegreeOrder)
{
    auto max_err = [&](std::size_t n) {
        const auto bx = BSplineBasis::uniform(3, n, 0.0, 1.0);
        const auto by = BSplineBasis::uniform(3, n, 0.0, 1.0);
        SplineBuilder2D builder(bx, by);
        auto v = sample_2d(bx, by, f2);
        builder.build_inplace(v);
        SplineEvaluator2D eval(bx, by);
        double err = 0.0;
        for (int a = 0; a < 40; ++a) {
            for (int b = 0; b < 40; ++b) {
                const double x = (static_cast<double>(a) + 0.37) / 40.0;
                const double y = (static_cast<double>(b) + 0.61) / 40.0;
                err = std::max(err, std::abs(eval(x, y, v) - f2(x, y)));
            }
        }
        return err;
    };
    const double e1 = max_err(24);
    const double e2 = max_err(48);
    EXPECT_GT(e1 / e2, 16.0 / 3.0) << "e1=" << e1 << " e2=" << e2;
}

TEST(Spline2D, PartialDerivativesMatchAnalytic)
{
    const auto bx = BSplineBasis::uniform(5, 48, 0.0, 1.0);
    const auto by = BSplineBasis::uniform(5, 48, 0.0, 1.0);
    SplineBuilder2D builder(bx, by);
    auto v = sample_2d(bx, by, +[](double x, double y) {
        return std::sin(two_pi * x) * std::cos(two_pi * y);
    });
    builder.build_inplace(v);
    SplineEvaluator2D eval(bx, by);
    for (int s = 0; s < 30; ++s) {
        const double x = (static_cast<double>(s) + 0.5) / 30.0;
        const double y = 1.0 - x;
        EXPECT_NEAR(eval.deriv_x(x, y, v),
                    two_pi * std::cos(two_pi * x) * std::cos(two_pi * y),
                    1e-4);
        EXPECT_NEAR(eval.deriv_y(x, y, v),
                    -two_pi * std::sin(two_pi * x) * std::sin(two_pi * y),
                    1e-4);
    }
}

TEST(Spline2D, IntegrateIsExactForConstant)
{
    const auto bx = BSplineBasis::uniform(3, 10, 0.0, 2.0);
    const auto by = BSplineBasis::clamped_uniform(4, 8, -1.0, 1.0);
    SplineBuilder2D builder(bx, by);
    View2D<double> v("v", bx.nbasis(), by.nbasis());
    deep_copy(v, 1.5);
    builder.build_inplace(v);
    SplineEvaluator2D eval(bx, by);
    // 1.5 * area(2 x 2) = 6.
    EXPECT_NEAR(eval.integrate(v), 6.0, 1e-11);
}

TEST(Spline2D, ExecutionSpacesAgree)
{
    const auto bx = BSplineBasis::uniform(3, 32, 0.0, 1.0);
    const auto by = BSplineBasis::uniform(3, 24, 0.0, 1.0);
    SplineBuilder2D builder(bx, by);
    auto v1 = sample_2d(bx, by, f2);
    auto v2 = clone(v1);
    builder.build_inplace<pspl::Serial>(v1);
#if defined(PSPL_ENABLE_OPENMP)
    builder.build_inplace<pspl::OpenMP>(v2);
#else
    builder.build_inplace<pspl::Serial>(v2);
#endif
    for (std::size_t i = 0; i < bx.nbasis(); ++i) {
        for (std::size_t j = 0; j < by.nbasis(); ++j) {
            EXPECT_DOUBLE_EQ(v1(i, j), v2(i, j));
        }
    }
}

TEST(Spline2D, BatchedRank3MatchesPlaneByPlane)
{
    const auto bx = BSplineBasis::uniform(3, 20, 0.0, 1.0);
    const auto by = BSplineBasis::uniform(4, 16, 0.0, 1.0);
    SplineBuilder2D builder(bx, by);
    const std::size_t batch = 5;
    View3D<double> block("block", bx.nbasis(), by.nbasis(), batch);
    const auto px = bx.interpolation_points();
    const auto py = by.interpolation_points();
    for (std::size_t i = 0; i < bx.nbasis(); ++i) {
        for (std::size_t j = 0; j < by.nbasis(); ++j) {
            for (std::size_t k = 0; k < batch; ++k) {
                block(i, j, k) = std::sin(two_pi * px[i]
                                          + 0.3 * static_cast<double>(k))
                                 * std::cos(two_pi * py[j]);
            }
        }
    }
    // Reference: plane k = 2 solved alone. Every column runs the same
    // chain in both builds, so they agree bitwise.
    View2D<double> plane("plane", bx.nbasis(), by.nbasis());
    for (std::size_t i = 0; i < bx.nbasis(); ++i) {
        for (std::size_t j = 0; j < by.nbasis(); ++j) {
            plane(i, j) = block(i, j, 2);
        }
    }
    builder.build_inplace(plane);
    builder.build_inplace(block);
    for (std::size_t i = 0; i < bx.nbasis(); ++i) {
        for (std::size_t j = 0; j < by.nbasis(); ++j) {
            EXPECT_EQ(block(i, j, 2), plane(i, j)) << "i=" << i << " j=" << j;
        }
    }
}

// Boundary handling of the 2-D evaluator across degrees 2-5: feet exactly
// on the last knot, feet clamped from outside the domain (clamped bases)
// and feet wrapped around the period (periodic bases). These are exactly
// the feet a semi-Lagrangian step produces near the domain edges.
class Spline2DBoundary : public ::testing::TestWithParam<int>
{
protected:
    int degree() const { return GetParam(); }
};

TEST_P(Spline2DBoundary, FootExactlyOnLastKnot)
{
    // Periodic x, clamped y: the last y knot is a genuine domain edge. An
    // evaluation exactly at it must land in a valid cell (no past-the-end
    // support window) and reproduce the interpolated sample there.
    const auto bx = BSplineBasis::uniform(degree(), 24, 0.0, 1.0);
    const auto by = BSplineBasis::clamped_uniform(degree(), 20, 0.0, 1.0);
    SplineBuilder2D builder(bx, by);
    auto v = sample_2d(bx, by, f2);
    const auto values = clone(v);
    builder.build_inplace(v);

    SplineEvaluator2D eval(bx, by);
    const auto px = bx.interpolation_points();
    const auto py = by.interpolation_points();
    ASSERT_DOUBLE_EQ(py.back(), 1.0);
    for (std::size_t i = 0; i < bx.nbasis(); i += 3) {
        const double s = eval(px[i], 1.0, v);
        EXPECT_TRUE(std::isfinite(s));
        EXPECT_NEAR(s, values(i, by.nbasis() - 1), 1e-10) << "i=" << i;
    }
    // Periodic direction: x = 1.0 is the wrap point, identified with 0.0.
    for (std::size_t j = 0; j < by.nbasis(); j += 2) {
        EXPECT_NEAR(eval(1.0, py[j], v), eval(0.0, py[j], v), 1e-12)
                << "j=" << j;
    }
}

TEST_P(Spline2DBoundary, ClampedFeetOutsideDomainClampToEdge)
{
    const auto bx = BSplineBasis::clamped_uniform(degree(), 18, 0.0, 1.0);
    const auto by = BSplineBasis::clamped_uniform(degree(), 22, 0.0, 1.0);
    SplineBuilder2D builder(bx, by);
    auto v = sample_2d(bx, by, f2);
    builder.build_inplace(v);

    SplineEvaluator2D eval(bx, by);
    // A foot outside a clamped domain clamps to the edge: the same basis
    // arithmetic runs at the clamped coordinate, so the values agree
    // bitwise, not just approximately.
    for (const double y : {0.15, 0.5, 0.85}) {
        EXPECT_EQ(eval(-0.3, y, v), eval(0.0, y, v));
        EXPECT_EQ(eval(1.7, y, v), eval(1.0, y, v));
    }
    for (const double x : {0.2, 0.65}) {
        EXPECT_EQ(eval(x, -2.0, v), eval(x, 0.0, v));
        EXPECT_EQ(eval(x, 1.0 + 1e-9, v), eval(x, 1.0, v));
    }
    EXPECT_EQ(eval(-1.0, 2.0, v), eval(0.0, 1.0, v));
}

TEST_P(Spline2DBoundary, PeriodicFeetWrapAroundThePeriod)
{
    const auto bx = BSplineBasis::uniform(degree(), 26, 0.0, 1.0);
    const auto by = BSplineBasis::uniform(degree(), 30, 0.0, 1.0);
    SplineBuilder2D builder(bx, by);
    auto v = sample_2d(bx, by, f2);
    builder.build_inplace(v);

    SplineEvaluator2D eval(bx, by);
    for (const double x : {0.03, 0.5, 0.97}) {
        for (const double y : {0.02, 0.48, 0.99}) {
            const double ref = eval(x, y, v);
            EXPECT_NEAR(eval(x + 1.0, y, v), ref, 1e-12);
            EXPECT_NEAR(eval(x - 1.0, y, v), ref, 1e-12);
            EXPECT_NEAR(eval(x, y + 2.0, v), ref, 1e-12);
            EXPECT_NEAR(eval(x + 3.0, y - 1.0, v), ref, 1e-12);
        }
    }
}

TEST_P(Spline2DBoundary, EvaluateManyMatchesPointwiseAtBoundaryFeet)
{
    // evaluate_many is the strip entry point the fused advection driver
    // consumes; at boundary feet it must agree bitwise with the scalar
    // operator() since it runs the same per-point arithmetic.
    const auto bx = BSplineBasis::uniform(degree(), 24, 0.0, 1.0);
    const auto by = BSplineBasis::clamped_uniform(degree(), 20, 0.0, 1.0);
    SplineBuilder2D builder(bx, by);
    auto v = sample_2d(bx, by, f2);
    builder.build_inplace(v);

    SplineEvaluator2D eval(bx, by);
    const double xs_raw[] = {0.0, 1.0, 1.25, -0.5, 0.999999, 0.37};
    const double ys_raw[] = {1.0, 0.0, -0.2, 1.6, 1.0, 0.42};
    constexpr std::size_t npts = std::size(xs_raw);
    View1D<double> xs("xs", npts);
    View1D<double> ys("ys", npts);
    for (std::size_t k = 0; k < npts; ++k) {
        xs(k) = xs_raw[k];
        ys(k) = ys_raw[k];
    }
    double out[npts];
    eval.evaluate_many(xs, ys, v, out);
    for (std::size_t k = 0; k < npts; ++k) {
        EXPECT_EQ(out[k], eval(xs(k), ys(k), v)) << "k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Degrees, Spline2DBoundary,
                         ::testing::Values(2, 3, 4, 5),
                         [](const auto& info) {
                             return "d" + std::to_string(info.param);
                         });

TEST(Spline2D, RejectsWrongShape)
{
    const auto bx = BSplineBasis::uniform(3, 16, 0.0, 1.0);
    const auto by = BSplineBasis::uniform(3, 12, 0.0, 1.0);
    SplineBuilder2D builder(bx, by);
    View2D<double> bad("bad", 12, 16); // transposed shape
    EXPECT_DEATH(builder.build_inplace(bad), "nx, ny");
}

} // namespace
