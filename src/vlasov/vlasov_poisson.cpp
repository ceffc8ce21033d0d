#include "vlasov/vlasov_poisson.hpp"

#include "parallel/macros.hpp"
#include "parallel/parallel.hpp"
#include "parallel/subview.hpp"

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
    // f is allocated after both advection operators: their Schur set-up
    // holds dense n x n matrices, the construction peak, and f resident
    // next to them would add to it one-for-one.
    m_f = View2D<double>("vlasov_f", nv_, nx_);
    m_rho = View1D<double>("vlasov_rho", nx_);
    m_wx = point_weights(basis_x);
    m_wv = point_weights(basis_v);
}

void VlasovPoisson1D1V::update_field()
{
    // rho(i) = sum_j f(j, i) wv(j), swept along the contiguous rows of f:
    // each block of x columns walks every row once and accumulates each
    // rho(i) over ascending j from 0.0, the order of a column walk, so the
    // field is bitwise the same on every backend and block count.
    constexpr std::size_t block = 128;
    const std::size_t nx_ = nx();
    const std::size_t nv_ = nv();
    const auto f = m_f;
    const auto wv = m_wv;
    const auto rho = m_rho;
    parallel_for("pspl::vlasov::rho", (nx_ + block - 1) / block,
                 [=](std::size_t b) {
                     const std::size_t i0 = b * block;
                     const std::size_t i1 = std::min(i0 + block, nx_);
                     for (std::size_t i = i0; i < i1; ++i) {
                         rho(i) = 0.0;
                     }
                     for (std::size_t j = 0; j < nv_; ++j) {
                         const double w = wv(j);
                         for (std::size_t i = i0; i < i1; ++i) {
                             rho(i) += f(j, i) * w;
                         }
                     }
                 });
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
    // convention; Landau/two-stream results are sign-symmetric). The v
    // full step runs in place on the columns of f through a zero-copy
    // transposed view: no transpose, no (nx, nv) scratch.
    const auto fv = transposed_view(m_f);
    m_adv_v->step_to(fv, fv);
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
    constexpr std::size_t block = diag_block_rows;
    const std::size_t nx_ = nx();
    const std::size_t nv_ = nv();
    const std::size_t nblocks = (nv_ + block - 1) / block;
    View2D<double> partial("vlasov_diag_partials", nblocks, 4);
    const auto f = m_f;
    const auto vpts = m_adv_v->points();
    const auto wvs = m_wv;
    const auto wx = m_wx;
    parallel_for("pspl::vlasov::diagnostics", nblocks, [=](std::size_t b) {
        double mass = 0.0;
        double momentum = 0.0;
        double kinetic = 0.0;
        double l2 = 0.0;
        const std::size_t j1 = std::min(b * block + block, nv_);
        for (std::size_t j = b * block; j < j1; ++j) {
            const double v = vpts(j);
            const double wv = wvs(j);
            for (std::size_t i = 0; i < nx_; ++i) {
                const double w = wv * wx(i);
                const double fv = f(j, i);
                mass += fv * w;
                momentum += v * fv * w;
                kinetic += 0.5 * v * v * fv * w;
                l2 += fv * fv * w;
            }
        }
        partial(b, 0) = mass;
        partial(b, 1) = momentum;
        partial(b, 2) = kinetic;
        partial(b, 3) = l2;
    });
    Diagnostics d;
    d.time = m_time;
    for (std::size_t b = 0; b < nblocks; ++b) {
        d.mass += partial(b, 0);
        d.momentum += partial(b, 1);
        d.kinetic_energy += partial(b, 2);
        d.l2_norm += partial(b, 3);
    }
    d.l2_norm = std::sqrt(d.l2_norm);
    d.field_energy = m_poisson.field_energy(m_efield);
    return d;
}

} // namespace pspl::vlasov
