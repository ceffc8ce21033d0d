// 1D1V Vlasov-Poisson solver by Strang splitting -- the paper's motivating
// physics (GYSELA solves 5D Vlasov + 3D Poisson; this is the standard
// reduced benchmark system) built entirely from the library's batched
// spline advections:
//
//     df/dt + v df/dx + E(x,t) df/dv = 0,   dE/dx = rho - <rho>,
//     rho(x) = integral f dv.
//
// One step: x half step (batch over v), field solve, v full step (batch
// over x), x half step. Diagnostics (mass, momentum, kinetic/field energy,
// L2 norm) use the spline quadrature weights.
#pragma once

#include "advection/semi_lagrangian.hpp"
#include "advection/transpose.hpp"
#include "bsplines/basis.hpp"
#include "fft/spectral_poisson.hpp"
#include "parallel/view.hpp"
#include "vlasov/poisson.hpp"

#include <cstddef>
#include <optional>

namespace pspl::vlasov {

struct Diagnostics {
    double time = 0.0;
    double mass = 0.0;
    double momentum = 0.0;
    double kinetic_energy = 0.0;
    double field_energy = 0.0;
    double l2_norm = 0.0;
};

class VlasovPoisson1D1V
{
public:
    struct Config {
        core::BuilderVersion version = core::BuilderVersion::FusedSpmv;
        /// Use the FFT-based field solve instead of the quadrature one
        /// (uniform x grids only; GYSELA's Poisson solver is FFT-based).
        bool spectral_poisson = false;
    };

    /// Periodic basis in x; periodic basis in v spanning [-vmax, vmax]
    /// (the distribution must effectively vanish at the v boundary).
    VlasovPoisson1D1V(bsplines::BSplineBasis basis_x,
                      bsplines::BSplineBasis basis_v, double dt);
    VlasovPoisson1D1V(bsplines::BSplineBasis basis_x,
                      bsplines::BSplineBasis basis_v, double dt,
                      Config config);

    std::size_t nx() const { return m_adv_x->nx(); }
    std::size_t nv() const { return m_adv_v->nx(); }
    const View1D<double>& points_x() const { return m_adv_x->points(); }
    const View1D<double>& points_v() const { return m_adv_v->points(); }
    double dt() const { return m_dt; }
    double time() const { return m_time; }

    /// Distribution function f(j, i) at (v_j, x_i), x contiguous. Mutable
    /// access for setting initial conditions.
    const View2D<double>& f() const { return m_f; }

    /// Electric field at the x points (updated every step).
    const View1D<double>& efield() const { return m_efield; }

    /// Initialize f(v, x) from a callable f0(x, v) and reset time.
    template <class F0>
    void initialize(F0&& f0)
    {
        for (std::size_t j = 0; j < nv(); ++j) {
            for (std::size_t i = 0; i < nx(); ++i) {
                m_f(j, i) = f0(points_x()(i), points_v()(j));
            }
        }
        m_time = 0.0;
        update_field();
    }

    /// Advance one Strang-split step.
    void step();

    /// Advance `nsteps`; returns the diagnostics after the last step.
    Diagnostics run(std::size_t nsteps);

    /// Current integral diagnostics.
    Diagnostics diagnostics() const;

private:
    void update_field();

    double m_dt = 0.0;
    double m_time = 0.0;
    std::optional<advection::BatchedAdvection1D> m_adv_x; ///< dt/2, batch v
    std::optional<advection::BatchedAdvection1D> m_adv_v; ///< dt, batch x
    Poisson1DPeriodic m_poisson;
    std::optional<fft::SpectralPoisson1D> m_spectral; ///< when configured
    View2D<double> m_f;      ///< (nv, nx)
    View2D<double> m_ft;     ///< (nx, nv) scratch for the v advection
    View1D<double> m_efield; ///< shared with m_adv_v's velocity view
    View1D<double> m_rho;
    View1D<double> m_wv;     ///< v-quadrature weights (basis integrals)
    View1D<double> m_wx;     ///< x-quadrature weights
};

} // namespace pspl::vlasov
