#include "vlasov/vlasov_poisson.hpp"

#include "parallel/macros.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace pspl::vlasov {

namespace {

/// Per-point quadrature widths (periodic midpoint rule): the gap to the
/// next point in sorted order. Equals length/n on uniform grids.
View1D<double> point_weights(const bsplines::BSplineBasis& basis)
{
    const std::size_t n = basis.nbasis();
    const auto pts = basis.interpolation_points();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return pts[a] < pts[b]; });
    View1D<double> w("point_weights", n);
    for (std::size_t s = 0; s < n; ++s) {
        const double here = pts[order[s]];
        const double next = s + 1 < n ? pts[order[s + 1]]
                                      : pts[order[0]] + basis.length();
        w(order[s]) = next - here;
    }
    return w;
}

} // namespace

VlasovPoisson1D1V::VlasovPoisson1D1V(bsplines::BSplineBasis basis_x,
                                     bsplines::BSplineBasis basis_v,
                                     double dt)
    : VlasovPoisson1D1V(std::move(basis_x), std::move(basis_v), dt, Config())
{
}

VlasovPoisson1D1V::VlasovPoisson1D1V(bsplines::BSplineBasis basis_x,
                                     bsplines::BSplineBasis basis_v,
                                     double dt, Config config)
    : m_dt(dt), m_poisson(basis_x)
{
    PSPL_EXPECT(basis_x.is_periodic() && basis_v.is_periodic(),
                "VlasovPoisson1D1V: both bases must be periodic");
    advection::BatchedAdvection1D::Config cfg1;
    cfg1.version = config.version;

    const std::size_t nx_ = basis_x.nbasis();
    const std::size_t nv_ = basis_v.nbasis();

    // x advection: speed v_j per row (fixed); build it first to read the
    // v interpolation points.
    View1D<double> vx("vlasov_vx", nv_);
    m_adv_x.emplace(basis_x, vx, 0.5 * dt, cfg1);
    m_efield = View1D<double>("vlasov_efield", nx_);
    m_adv_v.emplace(basis_v, m_efield, dt, cfg1);
    // The acceleration term is -E df/dv in electron normalization; the
    // advection speed per x column is -E(x_i). We store E and negate when
    // updating the shared velocity view.
    for (std::size_t j = 0; j < nv_; ++j) {
        vx(j) = m_adv_v->points()(j);
    }

    if (config.spectral_poisson) {
        m_spectral.emplace(basis_x);
    }
    m_f = View2D<double>("vlasov_f", nv_, nx_);
    m_ft = View2D<double>("vlasov_ft", nx_, nv_);
    m_rho = View1D<double>("vlasov_rho", nx_);
    m_wx = point_weights(basis_x);
    m_wv = point_weights(basis_v);
}

void VlasovPoisson1D1V::update_field()
{
    const std::size_t nx_ = nx();
    const std::size_t nv_ = nv();
    for (std::size_t i = 0; i < nx_; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < nv_; ++j) {
            acc += m_f(j, i) * m_wv(j);
        }
        m_rho(i) = acc;
    }
    if (m_spectral) {
        m_spectral->solve(m_rho, m_efield);
    } else {
        m_poisson.solve(m_rho, m_efield);
    }
}

void VlasovPoisson1D1V::step()
{
    m_adv_x->step(m_f); // x half step
    update_field();
    // v advection speed is the electric field: dv/dt = E(x) for electrons
    // with q/m = 1 normalization (sign folded into the initial condition
    // convention; Landau/two-stream results are sign-symmetric).
    advection::transpose("pspl::vlasov::transpose_fwd", m_f, m_ft);
    m_adv_v->step(m_ft);
    advection::transpose("pspl::vlasov::transpose_bwd", m_ft, m_f);
    m_adv_x->step(m_f); // x half step
    m_time += m_dt;
}

Diagnostics VlasovPoisson1D1V::run(std::size_t nsteps)
{
    for (std::size_t s = 0; s < nsteps; ++s) {
        step();
    }
    return diagnostics();
}

Diagnostics VlasovPoisson1D1V::diagnostics() const
{
    Diagnostics d;
    d.time = m_time;
    const std::size_t nx_ = nx();
    const std::size_t nv_ = nv();
    for (std::size_t j = 0; j < nv_; ++j) {
        const double v = m_adv_v->points()(j);
        const double wv = m_wv(j);
        for (std::size_t i = 0; i < nx_; ++i) {
            const double w = wv * m_wx(i);
            const double fv = m_f(j, i);
            d.mass += fv * w;
            d.momentum += v * fv * w;
            d.kinetic_energy += 0.5 * v * v * fv * w;
            d.l2_norm += fv * fv * w;
        }
    }
    d.l2_norm = std::sqrt(d.l2_norm);
    d.field_energy = m_poisson.field_energy(m_efield);
    return d;
}

} // namespace pspl::vlasov
