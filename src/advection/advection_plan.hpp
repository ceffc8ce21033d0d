// Fused build->evaluate advection driver: the tile-resident coefficient
// streaming pipeline of the semi-Lagrangian hot path.
//
// The unfused Algorithm 2 round-trips a full-size coefficient View through
// DRAM every step: transpose f, solve the batched collocation system in
// place, transpose back, then re-read every coefficient row to interpolate
// at the feet of the backward characteristics. The span cost models show
// the fused solve already memory-bound, so this driver cuts the traffic
// instead: per batch tile it stages the RHS strip in the per-thread
// WorkspaceArena, runs the fused Schur chain on it while it is L2-resident
// (core::solve_strip -- the same per-column arithmetic as the batched
// solvers, hence bitwise-identical coefficients), then evaluates
// the splines at the displaced feet straight out of the arena-resident
// strip. Only f itself is read and only the advected values are written;
// the coefficient array never exists in main memory.
//
// An AdvectionPlan is built once and reused every step: the knots (basis),
// the Schur factors (shared with the builder), the interpolation points,
// the resolved tile width and the arena slot sizing are all cached, so a
// repeated advect() does zero setup work -- no factorization, no knot or
// tile-model recomputation, and (after the first call sized the grow-only
// arena) no allocation.
//
// Scope: the fused path covers the Direct method's fused builder versions
// (Fused/FusedSpmv run the strip at W = 1, FusedSimd/FusedSpmvSimd -- the
// default -- at core::simd_chain_width = 8 on every ISA) at
// Precision::Double. Baseline (multi-pass GEMM) and the reduced-precision
// pipelines keep the unfused path -- fusable() reports false and
// BatchedAdvection1D falls back transparently.
#pragma once

#include "advection/transpose.hpp"
#include "bsplines/basis.hpp"
#include "core/batched_solve.hpp"
#include "core/spline_builder.hpp"
#include "core/spline_evaluator.hpp"
#include "debug/registry.hpp"
#include "parallel/arena.hpp"
#include "parallel/parallel.hpp"
#include "parallel/profiling.hpp"
#include "parallel/simd.hpp"
#include "parallel/tiling.hpp"
#include "parallel/view.hpp"

#include <cstddef>

namespace pspl::advection {

/// Modeled flop count of one spline evaluation at one point: wrap and
/// cell-local rescale, the Cox-de Boor triangle (one divide, two multiplies
/// and two adds per inner iteration, plus the left/right setup per level),
/// and the (degree+1)-tap coefficient combination.
inline double eval_point_flops(int degree)
{
    const double d = static_cast<double>(degree);
    return 2.5 * d * (d + 1.0) + 2.0 * d + 2.0 * (d + 1.0) + 4.0;
}

/// Modeled DRAM bytes of one fused advection step: the value strip read
/// once, the advected values written once. The coefficients never travel.
inline double advect_stream_bytes(std::size_t n, std::size_t npts,
                                  std::size_t nv)
{
    return static_cast<double>(nv)
           * static_cast<double>(n + npts)
           * static_cast<double>(sizeof(double));
}

class AdvectionPlan
{
public:
    AdvectionPlan() = default;

    /// Cache everything `advect()` needs from the builder (the Schur
    /// factors are shared, not copied), the evaluator, the interpolation
    /// points of the basis and the per-row velocities. The batch tile
    /// width is resolved here, once, from the builder's tile policy
    /// through the shared tile rule (two strips per column, next to the
    /// factors and points).
    AdvectionPlan(const core::SplineBuilder& builder,
                  core::SplineEvaluator evaluator, View1D<double> points,
                  View1D<double> velocities, double dt);

    /// Whether the fused driver covers this configuration (fused builder
    /// version at Precision::Double).
    bool fusable() const { return m_fusable; }
    /// Resolved batch tile width (a multiple of pack_width()).
    std::size_t tile_cols() const { return m_tile; }
    /// Pack width of the strip solve: 1 for the scalar fused versions,
    /// core::simd_chain_width (8, whatever ISA the caller targets) for the
    /// Simd versions.
    int pack_width() const { return m_width; }
    bool use_spmv() const { return m_use_spmv; }
    const View1D<double>& points() const { return m_points; }
    const View1D<double>& velocities() const { return m_velocities; }
    double dt() const { return m_dt; }

    /// One fused semi-Lagrangian step in place: f (nv, n) holds values on
    /// entry and the advected values f(j, i) = s_j(points(i) - v_j*dt) on
    /// exit.
    template <class Exec = DefaultExecutionSpace>
    void advect(const View2D<double>& f) const
    {
        advect_to<Exec>(f, f);
    }

    /// General form: read values `f(j, r)`, write the advected values to
    /// `out(j, i)`. Either view may be row-contiguous or a zero-copy
    /// transposed_view (batch index contiguous); both are moved in
    /// contiguous runs, so a cross-dimension Strang pass runs in place on
    /// the columns of g: advect_to(transposed_view(g), transposed_view(g)).
    ///
    /// Aliasing contract: `out` is either `f` itself or disjoint from it,
    /// never a partial overlap. In place is safe because every tile reads
    /// all of its columns before it writes any of them, and no other tile
    /// touches those columns.
    template <class Exec = DefaultExecutionSpace, class InView, class OutView>
    void advect_to(const InView& f, const OutView& out) const
    {
        PSPL_EXPECT(m_fusable,
                    "AdvectionPlan::advect: configuration is not fusable "
                    "(Baseline version or reduced precision) -- use the "
                    "unfused step");
        const std::size_t n = m_builder.basis().nbasis();
        const std::size_t nv = m_velocities.extent(0);
        const std::size_t npts = m_points.extent(0);
        PSPL_EXPECT(f.extent(0) == nv && f.extent(1) == n,
                    "AdvectionPlan::advect: f must be (nv, n)");
        PSPL_EXPECT(out.extent(0) == nv && out.extent(1) == npts,
                    "AdvectionPlan::advect: out must be (nv, npts)");
        if (m_width == 1) {
            if (m_use_spmv) {
                advect_impl<1, true, Exec>(f, out);
            } else {
                advect_impl<1, false, Exec>(f, out);
            }
            return;
        }
        constexpr int wide = core::simd_chain_width;
        if (m_use_spmv) {
            advect_impl<wide, true, Exec>(f, out);
        } else {
            advect_impl<wide, false, Exec>(f, out);
        }
    }

private:
    template <int W, bool UseSpmv, class Exec, class InView, class OutView>
    void advect_impl(const InView& f, const OutView& out) const
    {
        using Pack = simd<double, W>;
        const core::SchurDeviceData s = m_builder.solver().device_data();
        const std::size_t n = s.n;
        const std::size_t nv = m_velocities.extent(0);
        const std::size_t npts = m_points.extent(0);
        const auto wide = static_cast<std::size_t>(W);
        const std::size_t tile = m_tile;
        // The tile rule rounded the tile to whole packs of m_width == W
        // columns, so the strip is n rows of exactly `tile` doubles.
        PSPL_DEBUG_ASSERT(tile % wide == 0,
                          "AdvectionPlan: tile must be a multiple of the "
                          "pack width");
        // A transposed destination cannot take contiguous per-column
        // writes, so the evaluated tile is staged in an output strip and
        // scattered blockwise (contiguous tile-wide runs) instead.
        const bool out_rowwise = out.stride(1) == 1;
        const std::size_t strip_bytes = n * tile * sizeof(double);
        const std::size_t out_bytes =
                out_rowwise ? 0 : tile * npts * sizeof(double);
        WorkspaceArena& arena = host_workspace_arena();
        arena.reserve(static_cast<std::size_t>(Exec::concurrency()),
                      strip_bytes + out_bytes);
        debug::ScratchGuard scratch(arena.data(), arena.size_bytes());
        std::byte* const abase = arena.data();
        const std::size_t astride = arena.slot_stride_bytes();
        const auto evaluator = m_evaluator;
        const auto points = m_points;
        const auto velocities = m_velocities;
        const double dt = m_dt;
        for_each_batch_tile("pspl::advection::advect_fused",
                            RangePolicy<Exec>(nv), tile,
                            [=](const BatchTile& t) {
            std::byte* const slot =
                    abase
                    + astride * static_cast<std::size_t>(Exec::thread_rank());
            Pack* PSPL_RESTRICT buf = reinterpret_cast<Pack*>(slot);
            double* const bufd = reinterpret_cast<double*>(slot);
            const std::size_t cols = t.cols();
            const std::size_t packs = (cols + wide - 1) / wide;
            const std::size_t row_stride = packs * wide;
            // 1. Stage the RHS strip: contiguous runs of f in either
            //    layout, tail lanes zero-filled like solve_staged's.
            gather_strip_from_rows(f, t.begin, cols, n, row_stride, bufd);
            // 2. Fused Schur chain on the L2-resident strip -- bitwise
            //    the coefficients the unfused build would have produced.
            core::solve_strip<W, UseSpmv>(s, buf, packs, 0, packs);
            // 3. Evaluate at the feet straight from the strip; stream
            //    only the advected values out.
            if (out_rowwise) {
                for (std::size_t c = 0; c < cols; ++c) {
                    const std::size_t j = t.begin + c;
                    const core::StripColumn coeffs{bufd + c, n, row_stride};
                    evaluator.evaluate_shifted(points, velocities(j) * dt,
                                               coeffs, &out(j, 0));
                }
            } else {
                double* const obuf =
                        reinterpret_cast<double*>(slot + strip_bytes);
                for (std::size_t c = 0; c < cols; ++c) {
                    const std::size_t j = t.begin + c;
                    const core::StripColumn coeffs{bufd + c, n, row_stride};
                    evaluator.evaluate_shifted(points, velocities(j) * dt,
                                               coeffs, obuf + c * npts);
                }
                // 4. Blocked transpose out of the tile: the
                //    cross-dimension permutation, fused into the pass.
                scatter_strip_transposed(obuf, t.begin, cols, npts, out);
            }
        });
        if (profiling::enabled()) {
            // Cost attribution: the solve stages decompose onto their
            // counter children exactly as in the standalone batched solve,
            // the evaluation flops and the value/advected streams land on
            // their own children, and the whole-launch total merges with
            // the timed advect_fused span so the report derives achieved
            // bandwidth for the fused pipeline as one unit.
            core::attribute_schur_solve_cost(
                    s, "pspl::advection::advect_fused", nv, UseSpmv);
            const double eflops =
                    static_cast<double>(nv) * static_cast<double>(npts)
                    * eval_point_flops(m_builder.basis().degree());
            const double sbytes = advect_stream_bytes(n, npts, nv);
            profiling::add_counters("advect_eval", 0.0, eflops);
            profiling::add_counters("advect_stream", sbytes, 0.0);
            profiling::add_counters("pspl::advection::advect_fused", sbytes,
                                    eflops);
        }
    }

    core::SplineBuilder m_builder; ///< shares the Schur factors
    core::SplineEvaluator m_evaluator;
    View1D<double> m_points;
    View1D<double> m_velocities;
    double m_dt = 0.0;
    bool m_fusable = false;
    bool m_use_spmv = true;
    int m_width = 1;
    std::size_t m_tile = 0;
};

} // namespace pspl::advection
