// Tests for the batched semi-Lagrangian advection solver (Algorithm 2):
// exactness against the analytic shift solution, conservation, method
// agreement and multi-step stability.
#include "advection/semi_lagrangian.hpp"
#include "bsplines/knots.hpp"
#include "parallel/deep_copy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <tuple>

namespace {

using namespace pspl;
using advection::BatchedAdvection1D;
using advection::uniform_velocities;
using bsplines::BSplineBasis;

constexpr double two_pi = 2.0 * std::numbers::pi;

double initial_profile(double x)
{
    return 1.0 + 0.5 * std::sin(two_pi * x) + 0.25 * std::cos(2.0 * two_pi * x);
}

/// Fill f(j, i) = profile(x_i) for every velocity row.
View2D<double> initial_condition(const BatchedAdvection1D& adv)
{
    View2D<double> f("f", adv.nv(), adv.nx());
    for (std::size_t j = 0; j < adv.nv(); ++j) {
        for (std::size_t i = 0; i < adv.nx(); ++i) {
            f(j, i) = initial_profile(adv.points()(i));
        }
    }
    return f;
}

TEST(Transpose, RoundTrip)
{
    View2D<double> a("a", 5, 8);
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < 8; ++j) {
            a(i, j) = static_cast<double>(i * 8 + j);
        }
    }
    View2D<double> at("at", 8, 5);
    View2D<double> back("back", 5, 8);
    advection::transpose_host(a, at);
    advection::transpose_host(at, back);
    for (std::size_t i = 0; i < 5; ++i) {
        for (std::size_t j = 0; j < 8; ++j) {
            EXPECT_EQ(at(j, i), a(i, j));
            EXPECT_EQ(back(i, j), a(i, j));
        }
    }
}

TEST(Advection, ZeroVelocityIsIdentity)
{
    const auto basis = BSplineBasis::uniform(3, 64, 0.0, 1.0);
    View1D<double> v("v", 4); // all zero
    BatchedAdvection1D adv(basis, v, 0.1);
    auto f = initial_condition(adv);
    const auto f0 = clone(f);
    adv.step(f);
    for (std::size_t j = 0; j < adv.nv(); ++j) {
        for (std::size_t i = 0; i < adv.nx(); ++i) {
            EXPECT_NEAR(f(j, i), f0(j, i), 1e-12);
        }
    }
}

class AdvectionParam
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(AdvectionParam, OneStepMatchesAnalyticShift)
{
    const auto [degree, uniform] = GetParam();
    const std::size_t nx = 128;
    const auto basis =
            uniform ? BSplineBasis::uniform(degree, nx, 0.0, 1.0)
                    : BSplineBasis::non_uniform(
                              degree,
                              bsplines::stretched_breaks(nx, 0.0, 1.0, 0.3));
    const auto v = uniform_velocities(5, -2.0, 2.0);
    const double dt = 0.013;
    BatchedAdvection1D::Config cfg;
    BatchedAdvection1D adv(basis, v, dt, cfg);
    auto f = initial_condition(adv);
    adv.step(f);

    for (std::size_t j = 0; j < adv.nv(); ++j) {
        for (std::size_t i = 0; i < adv.nx(); ++i) {
            const double exact =
                    initial_profile(adv.points()(i) - v(j) * dt);
            EXPECT_NEAR(f(j, i), exact, 2e-5)
                    << "degree " << degree << " j=" << j << " i=" << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(DegreesGrids, AdvectionParam,
                         ::testing::Combine(::testing::Values(3, 4, 5),
                                            ::testing::Bool()),
                         [](const auto& info) {
                             const int d = std::get<0>(info.param);
                             const bool u = std::get<1>(info.param);
                             return std::string("deg") + std::to_string(d)
                                    + (u ? "_uniform" : "_nonuniform");
                         });

TEST(Advection, MassIsConserved)
{
    // Periodic advection conserves the integral of f; with a uniform grid
    // the midpoint-rule sum is exactly the integral of the spline up to
    // interpolation error.
    const auto basis = BSplineBasis::uniform(3, 100, 0.0, 1.0);
    const auto v = uniform_velocities(3, 0.5, 1.5);
    BatchedAdvection1D adv(basis, v, 0.02);
    auto f = initial_condition(adv);
    auto mass = [&](std::size_t j) {
        double m = 0.0;
        for (std::size_t i = 0; i < adv.nx(); ++i) {
            m += f(j, i);
        }
        return m;
    };
    std::vector<double> m0(adv.nv());
    for (std::size_t j = 0; j < adv.nv(); ++j) {
        m0[j] = mass(j);
    }
    for (int s = 0; s < 10; ++s) {
        adv.step(f);
    }
    for (std::size_t j = 0; j < adv.nv(); ++j) {
        EXPECT_NEAR(mass(j), m0[j], 1e-6 * std::abs(m0[j]));
    }
}

TEST(Advection, FullPeriodReturnsToInitialCondition)
{
    // v*T = L: after nsteps with dt = L/(v*nsteps), the profile returns to
    // its starting position; the only error left is interpolation
    // diffusion.
    const std::size_t nx = 128;
    const auto basis = BSplineBasis::uniform(5, nx, 0.0, 1.0);
    View1D<double> v("v", 1);
    v(0) = 1.0;
    const int nsteps = 20;
    const double dt = 1.0 / static_cast<double>(nsteps);
    BatchedAdvection1D adv(basis, v, dt);
    auto f = initial_condition(adv);
    const auto f0 = clone(f);
    for (int s = 0; s < nsteps; ++s) {
        adv.step(f);
    }
    for (std::size_t i = 0; i < nx; ++i) {
        EXPECT_NEAR(f(0, i), f0(0, i), 1e-6);
    }
}

TEST(Advection, DirectAndIterativeMethodsAgree)
{
    const auto basis = BSplineBasis::uniform(3, 64, 0.0, 1.0);
    const auto v = uniform_velocities(4, -1.0, 1.0);
    const double dt = 0.01;

    BatchedAdvection1D::Config direct_cfg;
    direct_cfg.method = BatchedAdvection1D::Method::Direct;
    BatchedAdvection1D direct(basis, v, dt, direct_cfg);

    BatchedAdvection1D::Config iter_cfg;
    iter_cfg.method = BatchedAdvection1D::Method::Iterative;
    iter_cfg.iterative.kind = iterative::IterativeKind::BiCGStab;
    iter_cfg.iterative.config.tolerance = 1e-14;
    BatchedAdvection1D iter(basis, v, dt, iter_cfg);

    auto f1 = initial_condition(direct);
    auto f2 = clone(f1);
    direct.step(f1);
    const auto stats = iter.step(f2);
    EXPECT_TRUE(stats.all_converged);
    EXPECT_GT(stats.max_iterations, 0u);

    for (std::size_t j = 0; j < direct.nv(); ++j) {
        for (std::size_t i = 0; i < direct.nx(); ++i) {
            EXPECT_NEAR(f1(j, i), f2(j, i), 1e-9);
        }
    }
}

TEST(Advection, BuilderVersionsGiveIdenticalDynamics)
{
    const auto basis = BSplineBasis::uniform(4, 48, 0.0, 1.0);
    const auto v = uniform_velocities(3, 0.1, 0.9);
    const double dt = 0.015;
    std::vector<View2D<double>> results;
    for (const auto version :
         {core::BuilderVersion::Baseline, core::BuilderVersion::Fused,
          core::BuilderVersion::FusedSpmv}) {
        BatchedAdvection1D::Config cfg;
        cfg.version = version;
        BatchedAdvection1D adv(basis, v, dt, cfg);
        auto f = initial_condition(adv);
        for (int s = 0; s < 3; ++s) {
            adv.step(f);
        }
        results.push_back(f);
    }
    for (std::size_t j = 0; j < 3; ++j) {
        for (std::size_t i = 0; i < 48; ++i) {
            EXPECT_NEAR(results[0](j, i), results[1](j, i), 1e-12);
            EXPECT_NEAR(results[0](j, i), results[2](j, i), 1e-12);
        }
    }
}

TEST(TransposedView, SharesDataAndSwapsIndices)
{
    View2D<double> m("m", 3, 5);
    m(1, 4) = 7.5;
    auto t = pspl::transposed_view(m);
    EXPECT_EQ(t.extent(0), 5u);
    EXPECT_EQ(t.extent(1), 3u);
    EXPECT_EQ(t(4, 1), 7.5);
    t(0, 2) = -2.0;
    EXPECT_EQ(m(2, 0), -2.0);
    EXPECT_EQ(t.data(), m.data());
}

TEST(Advection, ClampedDomainAdvectsInteriorCorrectly)
{
    // Non-periodic (clamped) advection: feet that leave the domain are
    // clamped (constant inflow of the boundary value). For a compactly
    // supported bump away from the boundaries, the interior solution is the
    // exact shift.
    const std::size_t ncells = 128;
    const auto basis = BSplineBasis::clamped_uniform(3, ncells, 0.0, 1.0);
    View1D<double> v("v", 2);
    v(0) = 0.5;
    v(1) = -0.5;
    const double dt = 0.02;
    BatchedAdvection1D adv(basis, v, dt);
    auto bump = [](double x) {
        const double d = (x - 0.5) / 0.07;
        return std::exp(-d * d);
    };
    View2D<double> f("f", 2, adv.nx());
    for (std::size_t j = 0; j < 2; ++j) {
        for (std::size_t i = 0; i < adv.nx(); ++i) {
            f(j, i) = bump(adv.points()(i));
        }
    }
    for (int s = 0; s < 5; ++s) {
        adv.step(f);
    }
    const double t = 5.0 * dt;
    for (std::size_t j = 0; j < 2; ++j) {
        for (std::size_t i = 0; i < adv.nx(); ++i) {
            const double x = adv.points()(i);
            if (x > 0.15 && x < 0.85) {
                EXPECT_NEAR(f(j, i), bump(x - v(j) * t), 1e-4)
                        << "j=" << j << " x=" << x;
            }
        }
    }
}

TEST(Advection, RejectsWrongShape)
{
    const auto basis = BSplineBasis::uniform(3, 32, 0.0, 1.0);
    const auto v = uniform_velocities(4, -1.0, 1.0);
    BatchedAdvection1D adv(basis, v, 0.01);
    View2D<double> bad("bad", 4, 31);
    EXPECT_DEATH(adv.step(bad), "Nv, Nx");
}

TEST(Advection, CflLargerThanOneIsStillStable)
{
    // Semi-Lagrangian schemes are not CFL-limited: a step with v*dt > dx
    // must stay bounded and accurate.
    const std::size_t nx = 64;
    const auto basis = BSplineBasis::uniform(3, nx, 0.0, 1.0);
    View1D<double> v("v", 1);
    v(0) = 5.0;
    const double dt = 0.05; // v*dt = 0.25 = 16 cells
    BatchedAdvection1D adv(basis, v, dt);
    auto f = initial_condition(adv);
    adv.step(f);
    for (std::size_t i = 0; i < nx; ++i) {
        const double exact = initial_profile(adv.points()(i) - 0.25);
        EXPECT_NEAR(f(0, i), exact, 1e-3);
    }
}

} // namespace
