// 1-D batched semi-Lagrangian advection solver (paper Algorithm 2 and
// §III-C): one time step of
//     df/dt + v df/dx = 0
// on an (Nv, Nx) phase-space block, periodic in x. Each velocity row is an
// independent 1-D advection: splines are built along x batched over v, then
// f is interpolated at the feet of the backward characteristics
// x* = x - v*dt.
//
// This is the paper's benchmark application; GLUPS (Eq. 7) is measured over
// whole calls to step().
#pragma once

#include "advection/advection_plan.hpp"
#include "advection/transpose.hpp"
#include "bsplines/basis.hpp"
#include "core/iterative_spline_builder.hpp"
#include "core/spline_builder.hpp"
#include "core/spline_evaluator.hpp"
#include "parallel/profiling.hpp"

#include <optional>
#include <utility>

namespace pspl::advection {

class BatchedAdvection1D
{
public:
    enum class Method {
        Direct,    ///< Schur/batched-serial path (Kokkos-kernels analogue)
        Iterative, ///< chunked Krylov path (Ginkgo analogue)
    };

    struct Config {
        Method method = Method::Direct;
        core::BuilderVersion version = core::BuilderVersion::FusedSpmv;
        core::IterativeSplineBuilder::Options iterative{};
    };

    /// `velocities(j)` is the constant advection speed of row j; `dt` the
    /// time-step length.
    BatchedAdvection1D(bsplines::BSplineBasis basis_x,
                       View1D<double> velocities, double dt);
    BatchedAdvection1D(bsplines::BSplineBasis basis_x,
                       View1D<double> velocities, double dt, Config config);

    std::size_t nx() const { return m_basis.nbasis(); }
    std::size_t nv() const { return m_velocities.extent(0); }
    const bsplines::BSplineBasis& basis() const { return m_basis; }
    /// Interpolation points (the x grid); position of column i of f.
    const View1D<double>& points() const { return m_points; }
    const View1D<double>& velocities() const { return m_velocities; }
    double dt() const { return m_dt; }

    /// Whether the fused build->evaluate pipeline (AdvectionPlan) is
    /// driving step(): resolved once at construction. The plan runs
    /// exactly when the configuration is fusable (Direct method,
    /// non-Baseline version, Precision::Double); Algorithm 2 runs
    /// otherwise.
    bool fused_active() const { return m_plan.has_value(); }
    /// The cached fused-pipeline plan, when fused_active().
    const std::optional<AdvectionPlan>& plan() const { return m_plan; }

    /// Advance f (shape (Nv, Nx), x contiguous) by one time step in place.
    /// Returns iteration statistics when the iterative method is active.
    template <class Exec = DefaultExecutionSpace>
    iterative::SolveStats step(const View2D<double>& f) const
    {
        return step_to<Exec>(f, f);
    }

    /// General form: read values from f (Nv, Nx), write the advected
    /// values to `out` -- f itself (in place), or a zero-copy
    /// transposed_view of an (Nx, Nv) block so the 2-D Strang chain can
    /// hand the next dimension its layout with no physical transpose.
    template <class Exec = DefaultExecutionSpace, class OutView>
    iterative::SolveStats step_to(const View2D<double>& f,
                                  const OutView& out) const
    {
        PSPL_EXPECT(f.extent(0) == nv() && f.extent(1) == nx(),
                    "step: f must be (Nv, Nx)");
        PSPL_EXPECT(out.extent(0) == nv() && out.extent(1) == nx(),
                    "step: out must be (Nv, Nx)");
        profiling::ScopedRegion region("pspl_advection_step");
        iterative::SolveStats stats;

        if (m_plan) {
            // Fused build->evaluate pipeline: per batch tile, stage the
            // RHS strip in the workspace arena, solve, evaluate at the
            // feet from the L2-resident coefficients. No transposes, no
            // full-size coefficient array.
            m_plan->template advect_to<Exec>(f, out);
            return stats;
        }

        // Algorithm 2 (Iterative, Baseline or reduced precision).
        // 1. Transpose so the batch (v) index is contiguous.
        transpose<Exec>("pspl::advection::transpose_fwd", f, m_ft);

        // 2. Build spline coefficients in place, batched over v.
        if (m_config.method == Method::Direct) {
            m_builder->template build_inplace<Exec>(m_ft);
        } else {
            stats = m_iterative_builder->build_inplace(m_ft);
        }

        // 3. Transpose coefficients back to the x-contiguous layout.
        transpose<Exec>("pspl::advection::transpose_bwd", m_ft, m_eta);

        // 4. Interpolate at the feet of the backward characteristics.
        const auto eta = m_eta;
        const auto points = m_points;
        const auto velocities = m_velocities;
        const double dt = m_dt;
        const auto evaluator = m_evaluator;
        const std::size_t nx_ = nx();
        // Feet go through evaluate_shifted -- the same entry point the
        // fused AdvectionPlan uses -- so the foot arithmetic (shift
        // rounded once, then subtracted) is identical code on both paths
        // and cannot drift apart under FMA contraction.
        const bool rows_contiguous = out.stride(1) == 1;
        parallel_for("pspl::advection::interpolate",
                     RangePolicy<Exec>(nv()), [=](std::size_t j) {
                         const auto coeffs = subview(eta, j, ALL);
                         const double shift = velocities(j) * dt;
                         if (rows_contiguous) {
                             evaluator.evaluate_shifted(points, shift, coeffs,
                                                        &out(j, 0));
                             return;
                         }
                         for (std::size_t i = 0; i < nx_; ++i) {
                             out(j, i) = evaluator(points(i) - shift, coeffs);
                         }
                     });
        if (profiling::enabled()) {
            // Unfused interpolate traffic: the coefficient array streams
            // back in from DRAM and the advected values stream out --
            // exactly the round-trip the fused pipeline removes.
            const double rows = static_cast<double>(nv());
            profiling::add_counters(
                    "pspl::advection::interpolate",
                    rows * 2.0 * static_cast<double>(nx_)
                            * static_cast<double>(sizeof(double)),
                    rows * static_cast<double>(nx_)
                            * eval_point_flops(m_basis.degree()));
        }
        return stats;
    }

private:
    bsplines::BSplineBasis m_basis;
    View1D<double> m_velocities;
    double m_dt = 0.0;
    Config m_config;
    std::optional<core::SplineBuilder> m_builder;
    std::optional<core::IterativeSplineBuilder> m_iterative_builder;
    core::SplineEvaluator m_evaluator;
    std::optional<AdvectionPlan> m_plan; ///< fused pipeline, when active
    View1D<double> m_points;
    // Scratch blocks reused across steps (allocated once, like the paper's
    // persistent device buffers).
    View2D<double> m_ft;  ///< (Nx, Nv) transposed values / coefficients
    View2D<double> m_eta; ///< (Nv, Nx) coefficients, x contiguous
};

/// Uniformly spaced velocity grid on [vmin, vmax] with nv points.
View1D<double> uniform_velocities(std::size_t nv, double vmin, double vmax);

} // namespace pspl::advection
