// Tests for the Vlasov-Poisson module: the periodic field solver and the
// physics of the 1D1V system (Landau damping rate, two-stream instability
// growth, conservation laws).
#include "vlasov/vlasov_poisson.hpp"

#include "bsplines/knots.hpp"
#include "parallel/deep_copy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <numeric>
#include <vector>

namespace {

using namespace pspl;
using bsplines::BSplineBasis;
using vlasov::Poisson1DPeriodic;
using vlasov::VlasovPoisson1D1V;

constexpr double pi = std::numbers::pi;

TEST(Poisson, SinusoidalChargeGivesAnalyticField)
{
    // rho = 1 + alpha cos(k x)  ->  E = (alpha/k) sin(k x), zero mean.
    const double k = 0.5;
    const double lx = 2.0 * pi / k;
    const double alpha = 0.25;
    const std::size_t n = 128;
    const auto basis = BSplineBasis::uniform(3, n, 0.0, lx);
    Poisson1DPeriodic poisson(basis);
    View1D<double> rho("rho", n);
    View1D<double> e("e", n);
    const auto pts = basis.interpolation_points();
    for (std::size_t i = 0; i < n; ++i) {
        rho(i) = 1.0 + alpha * std::cos(k * pts[i]);
    }
    poisson.solve(rho, e);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(e(i), (alpha / k) * std::sin(k * pts[i]), 2e-3)
                << "i=" << i;
    }
    // Analytic field energy: 0.5 * (alpha/k)^2 * L/2.
    EXPECT_NEAR(poisson.field_energy(e),
                0.25 * (alpha / k) * (alpha / k) * lx, 1e-2);
}

TEST(Poisson, UniformChargeGivesZeroField)
{
    const std::size_t n = 64;
    const auto basis = BSplineBasis::uniform(3, n, 0.0, 1.0);
    Poisson1DPeriodic poisson(basis);
    View1D<double> rho("rho", n);
    View1D<double> e("e", n);
    for (std::size_t i = 0; i < n; ++i) {
        rho(i) = 3.7;
    }
    poisson.solve(rho, e);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(e(i), 0.0, 1e-13);
    }
    EXPECT_NEAR(poisson.field_energy(e), 0.0, 1e-20);
}

TEST(Poisson, WorksOnNonUniformGrids)
{
    const double k = 1.0;
    const double lx = 2.0 * pi;
    const std::size_t n = 160;
    const auto basis = BSplineBasis::non_uniform(
            3, bsplines::stretched_breaks(n, 0.0, lx, 0.4));
    Poisson1DPeriodic poisson(basis);
    View1D<double> rho("rho", n);
    View1D<double> e("e", n);
    const auto pts = basis.interpolation_points();
    for (std::size_t i = 0; i < n; ++i) {
        rho(i) = 2.0 + 0.1 * std::cos(k * pts[i]);
    }
    poisson.solve(rho, e);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(e(i), 0.1 * std::sin(k * pts[i]), 5e-3);
    }
}

TEST(Poisson, RejectsClampedBasis)
{
    const auto basis = BSplineBasis::clamped_uniform(3, 16, 0.0, 1.0);
    EXPECT_DEATH(Poisson1DPeriodic{basis}, "periodic");
}

VlasovPoisson1D1V make_landau(std::size_t nx, std::size_t nv, double dt,
                              double alpha)
{
    const double k = 0.5;
    const double lx = 2.0 * pi / k;
    const auto bx = BSplineBasis::uniform(3, nx, 0.0, lx);
    const auto bv = BSplineBasis::uniform(3, nv, -6.0, 6.0);
    VlasovPoisson1D1V sim(bx, bv, dt);
    const double norm = 1.0 / std::sqrt(2.0 * pi);
    sim.initialize([=](double x, double v) {
        return norm * std::exp(-0.5 * v * v) * (1.0 + alpha * std::cos(k * x));
    });
    return sim;
}

TEST(VlasovPoisson, LandauDampingRateMatchesLinearTheory)
{
    auto sim = make_landau(64, 128, 0.1, 0.01);
    // Track field-energy peaks to fit the damping envelope.
    std::vector<double> peak_t;
    std::vector<double> peak_e;
    double prev2 = 0.0;
    double prev1 = 0.0;
    for (int s = 0; s < 150; ++s) {
        sim.step();
        const double e = sim.diagnostics().field_energy;
        if (s >= 2 && prev1 > prev2 && prev1 > e) {
            peak_t.push_back(sim.time() - sim.dt());
            peak_e.push_back(prev1);
        }
        prev2 = prev1;
        prev1 = e;
    }
    ASSERT_GE(peak_t.size(), 3u);
    const double gamma = 0.5
                         * std::log(peak_e.back() / peak_e.front())
                         / (peak_t.back() - peak_t.front());
    // Linear Landau damping at k = 0.5: gamma = -0.1533.
    EXPECT_NEAR(gamma, -0.1533, 0.02);
}

TEST(VlasovPoisson, ConservesMassAndMomentum)
{
    auto sim = make_landau(32, 64, 0.1, 0.05);
    const auto d0 = sim.diagnostics();
    EXPECT_NEAR(d0.mass, 4.0 * pi, 1e-3); // L_x * 1 (unit density)
    // The v grid is not exactly symmetric about 0 (wrapped Greville
    // points), so the discrete odd moment starts at ~1e-7, not 0.
    EXPECT_NEAR(d0.momentum, 0.0, 1e-6);
    sim.run(100);
    const auto d1 = sim.diagnostics();
    EXPECT_NEAR(d1.mass, d0.mass, 1e-9 * d0.mass);
    EXPECT_NEAR(d1.momentum, d0.momentum, 1e-6);
    // L2 norm decays (numerical filamentation damping) but stays close.
    EXPECT_LE(d1.l2_norm, d0.l2_norm * (1.0 + 1e-9));
    EXPECT_GT(d1.l2_norm, 0.8 * d0.l2_norm);
}

TEST(VlasovPoisson, TotalEnergyApproximatelyConserved)
{
    // Vlasov-Poisson conserves kinetic + field energy exactly; the
    // semi-Lagrangian discretization conserves it to interpolation/
    // splitting error. Over t = 10 the drift must stay well under 1 %.
    auto sim = make_landau(48, 96, 0.1, 0.05);
    const auto d0 = sim.diagnostics();
    const double e0 = d0.kinetic_energy + d0.field_energy;
    sim.run(100);
    const auto d1 = sim.diagnostics();
    const double e1 = d1.kinetic_energy + d1.field_energy;
    EXPECT_NEAR(e1, e0, 5e-3 * e0);
}

TEST(VlasovPoisson, TwoStreamInstabilityGrows)
{
    // Two counter-streaming beams are unstable: the field energy must grow
    // exponentially by orders of magnitude before saturation.
    const double k = 0.2;
    const double lx = 2.0 * pi / k;
    const double v0 = 2.4;
    const auto bx = BSplineBasis::uniform(3, 32, 0.0, lx);
    const auto bv = BSplineBasis::uniform(3, 64, -8.0, 8.0);
    VlasovPoisson1D1V sim(bx, bv, 0.1);
    const double norm = 0.5 / std::sqrt(2.0 * pi);
    sim.initialize([=](double x, double v) {
        const double beams = std::exp(-0.5 * (v - v0) * (v - v0))
                             + std::exp(-0.5 * (v + v0) * (v + v0));
        return norm * beams * (1.0 + 1e-3 * std::cos(k * x));
    });
    sim.run(50); // t = 5, past initial transients
    const double e_early = sim.diagnostics().field_energy;
    sim.run(200); // t = 25
    const double e_late = sim.diagnostics().field_energy;
    EXPECT_GT(e_late, 50.0 * e_early)
            << "early " << e_early << " late " << e_late;
}

TEST(VlasovPoisson, QuietStartStaysQuiet)
{
    // A spatially uniform Maxwellian is a stationary solution: the field
    // stays at round-off level and f does not move.
    auto sim = make_landau(32, 64, 0.1, 0.0);
    const auto f0 = clone(sim.f());
    sim.run(20);
    EXPECT_LT(sim.diagnostics().field_energy, 1e-25);
    for (std::size_t j = 0; j < sim.nv(); j += 7) {
        for (std::size_t i = 0; i < sim.nx(); i += 5) {
            EXPECT_NEAR(sim.f()(j, i), f0(j, i), 1e-11);
        }
    }
}

/// Column-walk oracle of VlasovPoisson1D1V's field update: the v weights
/// are the periodic midpoint widths (gap to the next point in sorted
/// order), each rho(i) walks column i of f over ascending j from 0.0, and
/// the quadrature Poisson solve turns rho into E.
View1D<double> column_walk_field(const View2D<double>& f,
                                 const BSplineBasis& bx,
                                 const BSplineBasis& bv)
{
    const auto pts = bv.interpolation_points();
    const std::size_t nv = pts.size();
    std::vector<std::size_t> order(nv);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return pts[a] < pts[b]; });
    std::vector<double> wv(nv);
    for (std::size_t s = 0; s < nv; ++s) {
        const double next = s + 1 < nv ? pts[order[s + 1]]
                                       : pts[order[0]] + bv.length();
        wv[order[s]] = next - pts[order[s]];
    }
    const std::size_t nx = bx.nbasis();
    View1D<double> rho("oracle_rho", nx);
    for (std::size_t i = 0; i < nx; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < nv; ++j) {
            acc += f(j, i) * wv[j];
        }
        rho(i) = acc;
    }
    View1D<double> e("oracle_e", nx);
    Poisson1DPeriodic(bx).solve(rho, e);
    return e;
}

TEST(VlasovPoisson, RowSweepFieldMatchesColumnWalkBitwise)
{
    // 200 x points: one full 128-column block of the row sweep plus a
    // 72-column tail block.
    const double k = 0.5;
    const double dt = 0.1;
    const auto bx = BSplineBasis::uniform(3, 200, 0.0, 2.0 * pi / k);
    const auto bv = BSplineBasis::uniform(3, 96, -6.0, 6.0);
    VlasovPoisson1D1V sim(bx, bv, dt);
    const double norm = 1.0 / std::sqrt(2.0 * pi);
    sim.initialize([=](double x, double v) {
        return norm * std::exp(-0.5 * v * v) * (1.0 + 0.05 * std::cos(k * x));
    });
    // A step solves the field after its leading x half step: replay that
    // half step on a copy of f to feed the oracle.
    const advection::BatchedAdvection1D half_x(bx, sim.points_v(), 0.5 * dt);
    for (int s = 0; s <= 3; ++s) {
        auto f = clone(sim.f());
        if (s > 0) {
            half_x.step(f);
            sim.step();
        }
        const auto e = column_walk_field(f, bx, bv);
        for (std::size_t i = 0; i < sim.nx(); ++i) {
            ASSERT_EQ(std::memcmp(&sim.efield()(i), &e(i), sizeof(double)), 0)
                    << "step " << s << ", i=" << i
                    << ": efield=" << sim.efield()(i) << " oracle=" << e(i);
        }
    }
}

TEST(VlasovPoisson, SpectralFieldSolverGivesSamePhysics)
{
    // The FFT field solver and the quadrature one must produce nearly
    // identical dynamics on a uniform grid (their fields agree to the
    // trapezoid-vs-spectral difference, tiny for smooth rho).
    const double k = 0.5;
    const double lx = 2.0 * pi / k;
    const auto bx = BSplineBasis::uniform(3, 48, 0.0, lx);
    const auto bv = BSplineBasis::uniform(3, 96, -6.0, 6.0);
    const double norm = 1.0 / std::sqrt(2.0 * pi);
    auto init = [=](double x, double v) {
        return norm * std::exp(-0.5 * v * v) * (1.0 + 0.02 * std::cos(k * x));
    };

    VlasovPoisson1D1V s1(bx, bv, 0.1);
    s1.initialize(init);
    VlasovPoisson1D1V::Config cfg;
    cfg.spectral_poisson = true;
    VlasovPoisson1D1V s2(bx, bv, 0.1, cfg);
    s2.initialize(init);

    for (int s = 0; s < 30; ++s) {
        s1.step();
        s2.step();
    }
    const auto d1 = s1.diagnostics();
    const auto d2 = s2.diagnostics();
    EXPECT_NEAR(d1.field_energy, d2.field_energy,
                0.05 * std::max(d1.field_energy, 1e-12));
    for (std::size_t j = 0; j < s1.nv(); j += 9) {
        for (std::size_t i = 0; i < s1.nx(); i += 7) {
            EXPECT_NEAR(s1.f()(j, i), s2.f()(j, i), 1e-4);
        }
    }
}

} // namespace
