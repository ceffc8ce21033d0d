// Tests for the Strang-split 2-D semi-Lagrangian advection: rigid rotation,
// shear flow, conservation and configuration handling.
#include "advection/semi_lagrangian_2d.hpp"
#include "parallel/deep_copy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace {

using namespace pspl;
using advection::BatchedAdvection2D;
using bsplines::BSplineBasis;

double blob(double x, double y, double cx, double cy)
{
    const double dx = x - cx;
    const double dy = y - cy;
    return std::exp(-(dx * dx + dy * dy) / 0.05);
}

BatchedAdvection2D make_rotation(std::size_t n, double omega, double dt)
{
    const auto basis = BSplineBasis::uniform(3, n, -1.0, 1.0);
    View1D<double> vx("vx", n);
    View1D<double> vy("vy", n);
    BatchedAdvection2D adv(basis, basis, vx, vy, dt);
    for (std::size_t k = 0; k < n; ++k) {
        vx(k) = -omega * adv.points_y()(k);
        vy(k) = omega * adv.points_x()(k);
    }
    return adv;
}

View2D<double> blob_field(const BatchedAdvection2D& adv, double cx, double cy)
{
    View2D<double> f("f", adv.ny(), adv.nx());
    for (std::size_t j = 0; j < adv.ny(); ++j) {
        for (std::size_t i = 0; i < adv.nx(); ++i) {
            f(j, i) = blob(adv.points_x()(i), adv.points_y()(j), cx, cy);
        }
    }
    return f;
}

TEST(Advection2D, RigidRotationQuarterTurn)
{
    // After a quarter turn the blob at (0.4, 0) must sit at (0, 0.4).
    const std::size_t n = 96;
    const double omega = 1.0;
    const int steps = 50;
    const double dt = (0.5 * std::numbers::pi) / static_cast<double>(steps);
    auto adv = make_rotation(n, omega, dt);
    auto f = blob_field(adv, 0.4, 0.0);
    for (int s = 0; s < steps; ++s) {
        adv.step(f);
    }
    double err = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            const double exact = blob(adv.points_x()(i), adv.points_y()(j),
                                      0.0, 0.4);
            err = std::max(err, std::abs(f(j, i) - exact));
        }
    }
    EXPECT_LT(err, 5e-3);
}

TEST(Advection2D, FullTurnReturnsInitialCondition)
{
    const std::size_t n = 64;
    const int steps = 100;
    const double dt = 2.0 * std::numbers::pi / static_cast<double>(steps);
    auto adv = make_rotation(n, 1.0, dt);
    auto f = blob_field(adv, 0.35, 0.1);
    const auto f0 = clone(f);
    for (int s = 0; s < steps; ++s) {
        adv.step(f);
    }
    double l2 = 0.0;
    double ref = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            const double d = f(j, i) - f0(j, i);
            l2 += d * d;
            ref += f0(j, i) * f0(j, i);
        }
    }
    EXPECT_LT(std::sqrt(l2 / ref), 0.05);
}

TEST(Advection2D, MassConservedUnderRotation)
{
    const std::size_t n = 48;
    auto adv = make_rotation(n, 1.0, 0.05);
    auto f = blob_field(adv, 0.3, -0.2);
    double m0 = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            m0 += f(j, i);
        }
    }
    for (int s = 0; s < 20; ++s) {
        adv.step(f);
    }
    double m1 = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            m1 += f(j, i);
        }
    }
    EXPECT_NEAR(m1, m0, 1e-9 * std::abs(m0));
}

TEST(Advection2D, PureShearMatchesAnalyticSolution)
{
    // vx = s*y, vy = 0: f(x, y, t) = f0(x - s*y*t, y). With vy = 0 the
    // splitting is exact in time; only interpolation error remains.
    const std::size_t n = 96;
    const double shear = 0.8;
    const double dt = 0.02;
    const int steps = 10;
    const auto basis = BSplineBasis::uniform(3, n, -1.0, 1.0);
    View1D<double> vx("vx", n);
    View1D<double> vy("vy", n); // zero
    BatchedAdvection2D adv(basis, basis, vx, vy, dt);
    for (std::size_t k = 0; k < n; ++k) {
        vx(k) = shear * adv.points_y()(k);
    }
    auto f = blob_field(adv, 0.0, 0.0);
    for (int s = 0; s < steps; ++s) {
        adv.step(f);
    }
    const double t = dt * steps;
    double err = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            const double x = adv.points_x()(i);
            const double y = adv.points_y()(j);
            // wrap the shifted argument into [-1, 1)
            double xs = x - shear * y * t;
            xs -= 2.0 * std::floor((xs + 1.0) / 2.0);
            const double exact = blob(xs, y, 0.0, 0.0);
            err = std::max(err, std::abs(f(j, i) - exact));
        }
    }
    EXPECT_LT(err, 1e-4);
}

TEST(Advection2D, ZeroVelocityIsIdentity)
{
    const std::size_t n = 32;
    const auto basis = BSplineBasis::uniform(3, n, -1.0, 1.0);
    View1D<double> vx("vx", n);
    View1D<double> vy("vy", n);
    BatchedAdvection2D adv(basis, basis, vx, vy, 0.1);
    auto f = blob_field(adv, 0.2, 0.2);
    const auto f0 = clone(f);
    adv.step(f);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(f(j, i), f0(j, i), 1e-12);
        }
    }
}

TEST(Advection2D, RejectsMismatchedVelocityExtents)
{
    const auto bx = BSplineBasis::uniform(3, 16, 0.0, 1.0);
    const auto by = BSplineBasis::uniform(3, 24, 0.0, 1.0);
    View1D<double> wrong("wrong", 16); // should be ny = 24
    View1D<double> vy("vy", 16);
    EXPECT_DEATH(BatchedAdvection2D(bx, by, wrong, vy, 0.1),
                 "vx_of_y");
}

} // namespace
