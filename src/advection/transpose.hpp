// Parallel 2-D transpose kernels (Algorithm 2 lines 3 and 5): the
// distribution function is stored x-contiguous per velocity, while the
// spline solver wants the batch (velocity) index contiguous, so each step
// packs/unpacks across layouts.
#pragma once

#include "debug/registry.hpp"
#include "parallel/arena.hpp"
#include "parallel/parallel.hpp"
#include "parallel/profiling.hpp"
#include "parallel/view.hpp"

#include <cstddef>
#include <string_view>

namespace pspl::advection {

/// Square block edge of the tiled transpose: a 32 x 32 double tile is 8 KB
/// of staging per thread -- L1-resident on every target.
inline constexpr std::size_t transpose_block = 32;

/// out(j, i) = in(i, j).
///
/// Cache-blocked: each iteration stages one (B, B) block of `in` into a
/// per-thread workspace-arena slot with contiguous row reads, then writes
/// it back transposed with contiguous row writes, so neither side of the
/// copy issues the 8-byte strided accesses the naive element-wise kernel
/// is bound by. No heap allocation occurs inside (or per call of) the
/// dispatch: the staging lives in the persistent arena.
template <class Exec = DefaultExecutionSpace, class InView, class OutView>
void transpose(std::string_view label, const InView& in, const OutView& out)
{
    using T = std::remove_cv_t<typename InView::value_type>;
    constexpr std::size_t B = transpose_block;
    const std::size_t n0 = in.extent(0);
    const std::size_t n1 = in.extent(1);
    PSPL_EXPECT(out.extent(0) == n1 && out.extent(1) == n0,
                "transpose: extent mismatch");
    const std::size_t bt0 = (n0 + B - 1) / B;
    const std::size_t bt1 = (n1 + B - 1) / B;
    WorkspaceArena& arena = host_workspace_arena();
    arena.reserve(static_cast<std::size_t>(Exec::concurrency()),
                  B * B * sizeof(T));
    debug::ScratchGuard scratch(arena.data(), arena.size_bytes());
    std::byte* const abase = arena.data();
    const std::size_t astride = arena.slot_stride_bytes();
    parallel_for(label, RangePolicy<Exec>(bt0 * bt1), [=](std::size_t t) {
        T* PSPL_RESTRICT buf = reinterpret_cast<T*>(
                abase
                + astride * static_cast<std::size_t>(Exec::thread_rank()));
        const std::size_t i0 = (t / bt1) * B;
        const std::size_t j0 = (t % bt1) * B;
        const std::size_t i1 = i0 + B < n0 ? i0 + B : n0;
        const std::size_t j1 = j0 + B < n1 ? j0 + B : n1;
        for (std::size_t i = i0; i < i1; ++i) {
            for (std::size_t j = j0; j < j1; ++j) {
                buf[(i - i0) * B + (j - j0)] = in(i, j);
            }
        }
        for (std::size_t j = j0; j < j1; ++j) {
            for (std::size_t i = i0; i < i1; ++i) {
                out(j, i) = buf[(i - i0) * B + (j - j0)];
            }
        }
    });
    if (profiling::enabled()) {
        // Modeled DRAM traffic of the permutation (read + write every
        // element once): lands on the timed span so the perf report can
        // put the transposes' byte cost next to the solve/evaluate stages
        // -- the traffic the fused advection pipeline eliminates.
        const double moved = 2.0 * static_cast<double>(n0)
                             * static_cast<double>(n1)
                             * static_cast<double>(sizeof(T));
        profiling::add_counters(label, moved, 0.0);
    }
}

/// Rank-3 permutation of the two leading dimensions, keeping the batch
/// index contiguous: out(j, i, k) = in(i, j, k).
template <class Exec = DefaultExecutionSpace, class InView, class OutView>
void transpose_01(std::string_view label, const InView& in,
                  const OutView& out)
{
    const std::size_t n0 = in.extent(0);
    const std::size_t n1 = in.extent(1);
    const std::size_t nb = in.extent(2);
    PSPL_EXPECT(out.extent(0) == n1 && out.extent(1) == n0
                        && out.extent(2) == nb,
                "transpose_01: extent mismatch");
    parallel_for(label, MDRangePolicy<2, Exec>({n0, n1}),
                 [=](std::size_t i, std::size_t j) {
                     for (std::size_t k = 0; k < nb; ++k) {
                         out(j, i, k) = in(i, j, k);
                     }
                 });
    if (profiling::enabled()) {
        using T = std::remove_cv_t<typename InView::value_type>;
        const double moved = 2.0 * static_cast<double>(n0)
                             * static_cast<double>(n1)
                             * static_cast<double>(nb)
                             * static_cast<double>(sizeof(T));
        profiling::add_counters(label, moved, 0.0);
    }
}

/// Stage one batch tile of row-contiguous values into the row-major strip
/// layout the tile-resident solvers consume: strip element (r, c) lands at
/// strip[r * row_stride + c] and holds in(col0 + c, r). The reads sweep
/// whole contiguous rows of `in` (DRAM-friendly); the strided writes stay
/// inside the L2-resident strip. Lanes [cols, row_stride) of every row are
/// zero-filled so tail packs match the staged SIMD driver's zero-filled
/// dead lanes. Kernel-callable: runs inside one tile task of the fused
/// advection dispatch.
template <class InView>
PSPL_INLINE_FUNCTION void
gather_strip_from_rows(const InView& in, std::size_t col0, std::size_t cols,
                       std::size_t rows, std::size_t row_stride,
                       double* PSPL_RESTRICT strip)
{
    for (std::size_t c = 0; c < cols; ++c) {
        for (std::size_t r = 0; r < rows; ++r) {
            strip[r * row_stride + c] = in(col0 + c, r);
        }
    }
    for (std::size_t l = cols; l < row_stride; ++l) {
        for (std::size_t r = 0; r < rows; ++r) {
            strip[r * row_stride + l] = 0.0;
        }
    }
}

/// Inverse side of the fused pipeline for transposed destinations: scatter
/// one evaluated output strip (`cols` columns of `npts` contiguous values
/// each) into `out(col0 + c, i)` with the point index innermost in the
/// strip but the column index innermost in the writes -- for a destination
/// that is a transposed_view of an (npts, nv) block, every i-iteration
/// writes one contiguous tile-wide run, so the 2-D Strang chain gets its
/// inter-dimension transpose for free out of the tile. Kernel-callable.
template <class OutView>
PSPL_INLINE_FUNCTION void
scatter_strip_transposed(const double* PSPL_RESTRICT strip, std::size_t col0,
                         std::size_t cols, std::size_t npts,
                         const OutView& out)
{
    for (std::size_t i = 0; i < npts; ++i) {
        for (std::size_t c = 0; c < cols; ++c) {
            out(col0 + c, i) = strip[c * npts + i];
        }
    }
}

/// Concrete host instantiation used by tools and tests.
void transpose_host(const View2D<double>& in, const View2D<double>& out);

} // namespace pspl::advection
