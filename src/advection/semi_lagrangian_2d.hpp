// 2-D semi-Lagrangian advection by Strang-split batched 1-D advections:
//     df/dt + vx(y) df/dx + vy(x) df/dy = 0
// for separable velocity fields (vx constant along x, vy constant along y),
// which covers rigid rotation (vx = -omega*y, vy = +omega*x) and shear
// flows -- the guiding-center-like motions of GYSELA's poloidal plane.
//
// One step is x-half / y-full / x-half, each a batched 1-D spline
// interpolation exactly as in the paper's Algorithm 2.
#pragma once

#include "advection/semi_lagrangian.hpp"
#include "advection/transpose.hpp"
#include "bsplines/basis.hpp"
#include "parallel/view.hpp"

#include <utility>

namespace pspl::advection {

class BatchedAdvection2D
{
public:
    struct Config {
        /// Forwarded to both 1-D passes. When the fused build->evaluate
        /// pipeline is active on both, step() chains the passes through
        /// zero-copy transposed views and the whole Strang step runs with
        /// no physical transpose at all.
        core::BuilderVersion version = core::BuilderVersion::FusedSpmv;
    };

    /// `vx_of_y(j)` is the x-speed on row y_j; `vy_of_x(i)` the y-speed on
    /// column x_i. The views are referenced, not copied: updating them
    /// between steps (time-dependent fields) is supported.
    BatchedAdvection2D(bsplines::BSplineBasis basis_x,
                       bsplines::BSplineBasis basis_y, View1D<double> vx_of_y,
                       View1D<double> vy_of_x, double dt);
    BatchedAdvection2D(bsplines::BSplineBasis basis_x,
                       bsplines::BSplineBasis basis_y, View1D<double> vx_of_y,
                       View1D<double> vy_of_x, double dt, Config config);

    std::size_t nx() const { return m_adv_x->nx(); }
    std::size_t ny() const { return m_adv_y->nx(); }
    const View1D<double>& points_x() const { return m_adv_x->points(); }
    const View1D<double>& points_y() const { return m_adv_y->points(); }

    /// Whether both 1-D passes run the fused build->evaluate pipeline
    /// (and step() therefore needs no physical transpose).
    bool fused_active() const
    {
        return m_adv_x->fused_active() && m_adv_y->fused_active();
    }

    /// Advance f (shape (ny, nx), x contiguous) by one Strang-split step.
    template <class Exec = DefaultExecutionSpace>
    void step(const View2D<double>& f) const
    {
        PSPL_EXPECT(f.extent(0) == ny() && f.extent(1) == nx(),
                    "step: f must be (Ny, Nx)");
        if (fused_active()) {
            // Transpose-free chain: each fused pass scatters its advected
            // tile straight into the next dimension's layout through a
            // zero-copy transposed view, so the inter-dimension
            // permutations ride inside the tile pipeline and no full-size
            // intermediate is ever streamed.
            m_adv_x->template step_to<Exec>(f, transposed_view(m_ft));
            m_adv_y->template step_to<Exec>(m_ft, transposed_view(f));
            m_adv_x->template step<Exec>(f); // x half step, in place
            return;
        }
        m_adv_x->template step<Exec>(f); // x half step, batch over y
        transpose<Exec>("pspl::advection2d::transpose_fwd", f, m_ft);
        m_adv_y->template step<Exec>(m_ft); // y full step, batch over x
        transpose<Exec>("pspl::advection2d::transpose_bwd", m_ft, f);
        m_adv_x->template step<Exec>(f); // x half step
    }

private:
    std::optional<BatchedAdvection1D> m_adv_x; ///< dt/2, batch over y
    std::optional<BatchedAdvection1D> m_adv_y; ///< dt, batch over x
    mutable View2D<double> m_ft;               ///< (nx, ny) scratch
};

} // namespace pspl::advection
