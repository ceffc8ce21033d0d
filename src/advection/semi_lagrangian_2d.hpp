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
#include "bsplines/basis.hpp"
#include "parallel/subview.hpp"
#include "parallel/view.hpp"

#include <optional>
#include <utility>

namespace pspl::advection {

class BatchedAdvection2D
{
public:
    struct Config {
        /// Forwarded to both 1-D passes.
        core::BuilderVersion version = core::default_builder_version;
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

    /// Whether both 1-D passes run the fused build->evaluate pipeline.
    bool fused_active() const
    {
        return m_adv_x->fused_active() && m_adv_y->fused_active();
    }

    /// Advance f (shape (ny, nx), x contiguous) by one Strang-split step.
    /// Every pass runs in place: the y pass reads and writes the columns
    /// of f through a zero-copy transposed view, so no pass transposes f
    /// and no full-size scratch exists.
    template <class Exec = DefaultExecutionSpace>
    void step(const View2D<double>& f) const
    {
        PSPL_EXPECT(f.extent(0) == ny() && f.extent(1) == nx(),
                    "step: f must be (Ny, Nx)");
        const auto ft = transposed_view(f);
        m_adv_x->template step<Exec>(f);         // x half step
        m_adv_y->template step_to<Exec>(ft, ft); // y full step
        m_adv_x->template step<Exec>(f);         // x half step
    }

private:
    std::optional<BatchedAdvection1D> m_adv_x; ///< dt/2, batch over y
    std::optional<BatchedAdvection1D> m_adv_y; ///< dt, batch over x
};

} // namespace pspl::advection
