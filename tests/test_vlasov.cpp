// Tests for the Vlasov-Poisson module: the periodic field solver and the
// physics of the 1D1V system (Landau damping rate, two-stream instability
// growth, conservation laws).
#include "vlasov/vlasov_poisson.hpp"

#include "algorithm2_oracle.hpp"
#include "scoped_env.hpp"

#include "bsplines/knots.hpp"
#include "core/spline_builder.hpp"
#include "parallel/deep_copy.hpp"
#include "parallel/profiling.hpp"
#include "parallel/subview.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

namespace {

using namespace pspl;
using bsplines::BSplineBasis;
using core::BuilderVersion;
using test::ScopedEnv;
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

/// The quadrature weights of VlasovPoisson1D1V: periodic midpoint widths
/// of the interpolation points (gap to the next point in sorted order).
std::vector<double> midpoint_weights(const BSplineBasis& b)
{
    const auto pts = b.interpolation_points();
    const std::size_t n = pts.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t c) { return pts[a] < pts[c]; });
    std::vector<double> w(n);
    for (std::size_t s = 0; s < n; ++s) {
        const double next = s + 1 < n ? pts[order[s + 1]]
                                      : pts[order[0]] + b.length();
        w[order[s]] = next - pts[order[s]];
    }
    return w;
}

/// Column-walk oracle of VlasovPoisson1D1V's field update: each rho(i)
/// walks column i of f over ascending j from 0.0 with the v weights, and
/// the quadrature Poisson solve turns rho into E.
View1D<double> column_walk_field(const View2D<double>& f,
                                 const BSplineBasis& bx,
                                 const BSplineBasis& bv)
{
    const auto wv = midpoint_weights(bv);
    const std::size_t nv = wv.size();
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

// ---------------------------------------------------------------------------
// The in-place v pass: a step must match a transpose-based Strang oracle
// (x half step, field, transpose, v step on the copy, transpose back, x half
// step -- every pass an Algorithm 2 step) to the bit, on f and on the field,
// after every step. (200, 96) and (37, 61) leave ragged pack and tile tails
// on both axes; Baseline runs Algorithm 2 inside the simulator too.
// ---------------------------------------------------------------------------

class TransposeStrangOracle
{
public:
    TransposeStrangOracle(const BSplineBasis& bx, const BSplineBasis& bv,
                          const View1D<double>& points_v, double dt,
                          BuilderVersion version)
        : m_bx(bx)
        , m_bv(bv)
        , m_efield("oracle_efield", bx.nbasis())
        , m_ft("oracle_ft", bx.nbasis(), bv.nbasis())
        , m_x(bx, version, points_v, 0.5 * dt)
        , m_v(bv, version, m_efield, dt)
    {
    }

    void step(const View2D<double>& f) const
    {
        m_x.step(f);
        const auto e = column_walk_field(f, m_bx, m_bv);
        for (std::size_t i = 0; i < e.extent(0); ++i) {
            m_efield(i) = e(i); // m_v reads the field through this view
        }
        advection::transpose("oracle_transpose_fwd", f, m_ft);
        m_v.step(m_ft);
        advection::transpose("oracle_transpose_bwd", m_ft, f);
        m_x.step(f);
    }

    const View1D<double>& efield() const { return m_efield; }

private:
    BSplineBasis m_bx;
    BSplineBasis m_bv;
    View1D<double> m_efield;
    View2D<double> m_ft;
    test::Algorithm2Step m_x;
    test::Algorithm2Step m_v;
};

class InPlaceStrangParam
    : public ::testing::TestWithParam<
              std::tuple<std::size_t, std::size_t, BuilderVersion>>
{
};


TEST_P(InPlaceStrangParam, StepMatchesTransposeOracleBitwise)
{
    const auto [nx, nv, version] = GetParam();
    const double k = 0.5;
    const double dt = 0.1;
    const auto bx = BSplineBasis::uniform(3, nx, 0.0, 2.0 * pi / k);
    const auto bv = BSplineBasis::uniform(3, nv, -6.0, 6.0);
    VlasovPoisson1D1V::Config cfg;
    cfg.version = version;
    VlasovPoisson1D1V sim(bx, bv, dt, cfg);
    const double norm = 1.0 / std::sqrt(2.0 * pi);
    sim.initialize([=](double x, double v) {
        return norm * std::exp(-0.5 * v * v) * (1.0 + 0.05 * std::cos(k * x));
    });
    const TransposeStrangOracle oracle(bx, bv, sim.points_v(), dt, version);
    auto f = clone(sim.f());
    for (int s = 0; s < 3; ++s) {
        sim.step();
        oracle.step(f);
        for (std::size_t i = 0; i < nx; ++i) {
            ASSERT_EQ(std::memcmp(&sim.efield()(i), &oracle.efield()(i),
                                  sizeof(double)),
                      0)
                    << "step " << s << ", i=" << i;
        }
        for (std::size_t j = 0; j < nv; ++j) {
            for (std::size_t i = 0; i < nx; ++i) {
                ASSERT_EQ(std::memcmp(&sim.f()(j, i), &f(j, i),
                                      sizeof(double)),
                          0)
                        << "step " << s << ", j=" << j << ", i=" << i
                        << ": sim=" << sim.f()(j, i) << " oracle=" << f(j, i);
            }
        }
    }
}

using StrangCase = std::tuple<std::size_t, std::size_t, BuilderVersion>;

INSTANTIATE_TEST_SUITE_P(
        ShapesVersions, InPlaceStrangParam,
        ::testing::Values(
                StrangCase{200, 96, core::default_builder_version},
                StrangCase{200, 96, BuilderVersion::Baseline},
                StrangCase{37, 61, core::default_builder_version},
                StrangCase{37, 61, BuilderVersion::Baseline}),
        [](const auto& info) {
            const bool baseline =
                    std::get<2>(info.param) == BuilderVersion::Baseline;
            return "nx" + std::to_string(std::get<0>(info.param)) + "_nv"
                   + std::to_string(std::get<1>(info.param))
                   + (baseline ? "_baseline" : "_default");
        });

// ---------------------------------------------------------------------------
// Memory: the simulator holds one (nv, nx) array (f) and no scratch of that
// size; f is allocated after the Schur set-up of both advections, so it
// does not add to the construction peak. The fused default (FP64) is the
// configuration these guards describe.
// ---------------------------------------------------------------------------

std::uint64_t live_view_bytes()
{
    return profiling::memory_stats().live_bytes;
}

TEST(VlasovPoisson, HoldsOneDistributionArray)
{
    const ScopedEnv precision("PSPL_PRECISION", "double");
    const std::size_t nx = 256;
    const std::size_t nv = 512;
    const double f_bytes = static_cast<double>(nx * nv * sizeof(double));
    const auto bx = BSplineBasis::uniform(3, nx, 0.0, 4.0 * pi);
    const auto bv = BSplineBasis::uniform(3, nv, -6.0, 6.0);
    const std::uint64_t before = live_view_bytes();
    const VlasovPoisson1D1V sim(bx, bv, 0.1);
    const auto held = static_cast<double>(live_view_bytes() - before);
    EXPECT_GE(held, f_bytes);
    EXPECT_LT(held, 1.5 * f_bytes);
}

TEST(VlasovPoisson, DistributionArrayStaysOutOfTheConstructionPeak)
{
    const ScopedEnv precision("PSPL_PRECISION", "double");
    const std::size_t nx = 256;
    const std::size_t nv = 512;
    const double f_bytes = static_cast<double>(nx * nv * sizeof(double));
    const auto bx = BSplineBasis::uniform(3, nx, 0.0, 4.0 * pi);
    const auto bv = BSplineBasis::uniform(3, nv, -6.0, 6.0);

    profiling::reset_memory_peak();
    std::uint64_t base = live_view_bytes();
    {
        const core::SplineBuilder builder(bv);
    }
    const auto builder_peak =
            static_cast<double>(profiling::memory_stats().peak_bytes - base);

    profiling::reset_memory_peak();
    base = live_view_bytes();
    const VlasovPoisson1D1V sim(bx, bv, 0.1);
    const auto sim_peak =
            static_cast<double>(profiling::memory_stats().peak_bytes - base);
    const auto sim_live = static_cast<double>(live_view_bytes() - base);
    EXPECT_LT(sim_peak, builder_peak + sim_live - 0.5 * f_bytes)
            << "builder(basis_v) peak " << builder_peak << " B, simulator "
            << "peak " << sim_peak << " B, live " << sim_live << " B";
}

// ---------------------------------------------------------------------------
// Diagnostics: a parallel reduction over fixed row blocks, bitwise equal to
// the same blocks summed serially (on every backend and thread count) and
// within rounding of the serial (j, i) walk of the whole array.
// ---------------------------------------------------------------------------

TEST(VlasovPoisson, DiagnosticsMatchSerialRowBlocksBitwise)
{
    const double k = 0.5;
    // 200 v rows: six full row blocks and a ragged tail block.
    const auto bx = BSplineBasis::uniform(3, 96, 0.0, 2.0 * pi / k);
    const auto bv = BSplineBasis::uniform(3, 200, -6.0, 6.0);
    VlasovPoisson1D1V sim(bx, bv, 0.1);
    const double norm = 1.0 / std::sqrt(2.0 * pi);
    sim.initialize([=](double x, double v) {
        return norm * std::exp(-0.5 * (v - 0.3) * (v - 0.3))
               * (1.0 + 0.05 * std::cos(k * x));
    });
    sim.run(2);

    const auto wx = midpoint_weights(bx);
    const auto wv = midpoint_weights(bv);
    const auto& f = sim.f();
    const std::size_t nx = sim.nx();
    const std::size_t nv = sim.nv();
    // sums[0..3]: mass, momentum, kinetic energy, squared L2 norm.
    const auto accumulate = [&](std::size_t j, double* sums) {
        const double v = sim.points_v()(j);
        for (std::size_t i = 0; i < nx; ++i) {
            const double w = wv[j] * wx[i];
            const double fv = f(j, i);
            sums[0] += fv * w;
            sums[1] += v * fv * w;
            sums[2] += 0.5 * v * v * fv * w;
            sums[3] += fv * fv * w;
        }
    };
    double blocked[4] = {0.0, 0.0, 0.0, 0.0};
    constexpr std::size_t block = VlasovPoisson1D1V::diag_block_rows;
    for (std::size_t j0 = 0; j0 < nv; j0 += block) {
        double part[4] = {0.0, 0.0, 0.0, 0.0};
        for (std::size_t j = j0; j < std::min(j0 + block, nv); ++j) {
            accumulate(j, part);
        }
        for (int q = 0; q < 4; ++q) {
            blocked[q] += part[q];
        }
    }
    double walk[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < nv; ++j) {
        accumulate(j, walk);
    }

    const auto d = sim.diagnostics();
    const double got[4] = {d.mass, d.momentum, d.kinetic_energy, d.l2_norm};
    const double want[4] = {blocked[0], blocked[1], blocked[2],
                            std::sqrt(blocked[3])};
    const double chain[4] = {walk[0], walk[1], walk[2], std::sqrt(walk[3])};
    const char* names[4] = {"mass", "momentum", "kinetic", "l2"};
    for (int q = 0; q < 4; ++q) {
        EXPECT_EQ(std::memcmp(&got[q], &want[q], sizeof(double)), 0)
                << names[q] << ": " << got[q] << " vs blocked " << want[q];
        EXPECT_LE(std::abs(got[q] - chain[q]), 1e-13 * std::abs(chain[q]))
                << names[q] << ": " << got[q] << " vs serial walk "
                << chain[q];
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
