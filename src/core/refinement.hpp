// Mixed-precision batched solve with FP64 iterative refinement.
//
// The driver runs the whole Algorithm-1 chain in FP32 -- narrowed factors
// (SchurFloatFactors, with divide-free reciprocal sweeps), FP32 staged RHS
// tiles, simd packs at twice the FP64 lane count -- and then restores full
// double accuracy with a short residual-correction loop per L2-resident
// tile:
//
//     x   = widen(solve_f32(narrow(b)))          initial FP32 solve
//     r   = b - A x                              FP64 residual (exact A)
//     d   = widen(solve_f32(narrow(r)))          FP32 correction solve
//     x  += d;  r  = b - A x                     FP64 update
//
// iterated until max|r| <= target * max|b| or the iteration budget is
// spent. Everything happens while the tile is cache-resident, so the loop
// adds arithmetic but no DRAM traffic; the residual applies the *exact*
// FP64 operator (all structural nonzeros, SchurSolver::matrix_coo), which
// is what makes the refined result land within FP64 working accuracy.
//
// Each residual pass is fused (RHS re-read from the source block, exact
// spmv, max-norm, FP32 narrow for the next correction -- one sweep, see
// refinement.cpp), and the loop exploits the linear convergence of
// iterative refinement to skip the trailing verification pass: every step
// contracts max|r| by the same factor rho (= rel_1, the contraction
// observed on the first residual), so once rel * rho <= target the final
// correction is applied and the loop exits without another spmv. The
// accuracy gate in bench_ablation_precision checks the result against the
// FP64 oracle end to end, so the extrapolation is verified empirically.
//
// Hard fallback: when refinement stalls -- the residual stops contracting,
// goes non-finite, or the budget is exhausted above target -- the tile is
// re-gathered from its (still untouched) source and solved once with the
// FP64 ladder, so a poisoned or ill-conditioned FP32 factorization can
// degrade speed but never accuracy.
//
// The residual arithmetic lives in refinement.cpp, compiled with
// -ffp-contract=off: with FMA contraction the residual r = b - A x would
// differ between compilers (and from the documented round-to-nearest
// semantics), making refined results non-reproducible across toolchains.
#pragma once

#include "core/batched_solve.hpp"
#include "core/precision.hpp"
#include "core/schur_solver.hpp"
#include "debug/registry.hpp"
#include "parallel/arena.hpp"
#include "parallel/parallel.hpp"
#include "parallel/simd.hpp"
#include "parallel/tiling.hpp"
#include "parallel/view.hpp"
#include "sparse/coo.hpp"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#if defined(__AVX512F__) || defined(__AVX__)
#include <immintrin.h>
#define PSPL_REFINE_STREAM_STORES 1
#else
#define PSPL_REFINE_STREAM_STORES 0
#endif

namespace pspl::core {

struct RefinementOptions {
    /// Stop once max|r| <= target * max|b| per tile. The default sits at
    /// the FP64 ladder's own test tolerance, so a converged Mixed solve is
    /// indistinguishable from the FP64 path downstream.
    double rel_residual_target = 1e-12;
    /// Refinement iteration budget per tile (the acceptance bound).
    int max_iters = 3;
};

/// What the solve actually did -- surfaced into the perf report (schema v3
/// `refine_iters`) and asserted by the precision ablation gate.
struct RefinementStats {
    int refine_iters = 0;           ///< max correction steps over all tiles
    std::size_t tiles = 0;          ///< tiles processed
    std::size_t fallback_tiles = 0; ///< tiles re-solved on the FP64 ladder
};

namespace refine_detail {

// Compiled in refinement.cpp with -ffp-contract=off (see header comment).
// All buffers are strips of a row-major staged tile: `cols` live columns
// per row, consecutive rows `pitch` elements apart (pitch == the outer
// tile width). `b` is the pristine staged RHS (source precision, padded
// with zeros) and `rwork` is one scratch row of at least `cols` doubles.

/// First fused residual pass: r = b - A * widen(xf), row group by row
/// group. Writes rf = narrow(r) (the RHS of the correction solve),
/// max|b| of the strip into norm_b, and returns max|r| (NaN/inf
/// propagate -- the reduction is exact for non-finite input).
double residual_initial(const sparse::Coo& a, const double* b,
                        const float* xf, float* rf, std::size_t n,
                        std::size_t pitch, std::size_t cols, double* rwork,
                        double& norm_b);
double residual_initial(const sparse::Coo& a, const float* b,
                        const float* xf, float* rf, std::size_t n,
                        std::size_t pitch, std::size_t cols, double* rwork,
                        double& norm_b);

/// Later fused residual passes: r = b - A x against the FP64 iterate
/// (corrections applied to x are not FP32-representable, so the product
/// must read x). Writes rf = narrow(r), returns max|r|.
double residual_from_x(const sparse::Coo& a, const double* b,
                       const double* x, float* rf, std::size_t n,
                       std::size_t pitch, std::size_t cols, double* rwork);
double residual_from_x(const sparse::Coo& a, const float* b, const double* x,
                       float* rf, std::size_t n, std::size_t pitch,
                       std::size_t cols, double* rwork);

/// x += widen(d) over a strip (n rows of `cols` at `pitch`).
void tile_accumulate_widen(double* x, const float* d, std::size_t n,
                           std::size_t pitch, std::size_t cols);

} // namespace refine_detail

namespace detail {

// -- streaming scatter ----------------------------------------------------
// The scatter is the pipeline's only write to DRAM-resident memory; with
// regular stores every destination line is first read for ownership,
// adding a full extra read stream of the output size. Non-temporal stores
// bypass the cache and the RFO. x86-only fast path (plain loops
// elsewhere); stream_fence() after each tile keeps the stores globally
// visible before the dispatch barrier releases readers.

PSPL_FORCEINLINE_FUNCTION void stream_fence()
{
#if PSPL_REFINE_STREAM_STORES
    _mm_sfence();
#endif
}

/// dst[j] = x[j]
PSPL_FORCEINLINE_FUNCTION void scatter_row_copy(double* PSPL_RESTRICT dst,
                                                const double* PSPL_RESTRICT x,
                                                std::size_t count)
{
    std::size_t j = 0;
#if defined(__AVX512F__)
    for (; j < count && (reinterpret_cast<std::uintptr_t>(dst + j) & 63u) != 0;
         ++j) {
        dst[j] = x[j];
    }
    for (; j + 8 <= count; j += 8) {
        _mm512_stream_pd(dst + j, _mm512_loadu_pd(x + j));
    }
#elif defined(__AVX__)
    for (; j < count && (reinterpret_cast<std::uintptr_t>(dst + j) & 31u) != 0;
         ++j) {
        dst[j] = x[j];
    }
    for (; j + 4 <= count; j += 4) {
        _mm256_stream_pd(dst + j, _mm256_loadu_pd(x + j));
    }
#endif
    for (; j < count; ++j) {
        dst[j] = x[j];
    }
}

/// dst[j] = widen(f[j])
PSPL_FORCEINLINE_FUNCTION void scatter_row_widen(double* PSPL_RESTRICT dst,
                                                 const float* PSPL_RESTRICT f,
                                                 std::size_t count)
{
    std::size_t j = 0;
#if defined(__AVX512F__)
    for (; j < count && (reinterpret_cast<std::uintptr_t>(dst + j) & 63u) != 0;
         ++j) {
        dst[j] = static_cast<double>(f[j]);
    }
    for (; j + 8 <= count; j += 8) {
        _mm512_stream_pd(dst + j, _mm512_cvtps_pd(_mm256_loadu_ps(f + j)));
    }
#elif defined(__AVX__)
    for (; j < count && (reinterpret_cast<std::uintptr_t>(dst + j) & 31u) != 0;
         ++j) {
        dst[j] = static_cast<double>(f[j]);
    }
    for (; j + 4 <= count; j += 4) {
        _mm256_stream_pd(dst + j, _mm256_cvtps_pd(_mm_loadu_ps(f + j)));
    }
#endif
    for (; j < count; ++j) {
        dst[j] = static_cast<double>(f[j]);
    }
}

/// dst[j] = widen(xf[j]) + widen(rf[j]) -- the FP64 iterate never
/// materialized: widen(xf) IS the iterate exactly, and the pending final
/// correction folds in with one exact-operand add.
PSPL_FORCEINLINE_FUNCTION void
scatter_row_sum_widen(double* PSPL_RESTRICT dst,
                      const float* PSPL_RESTRICT xf,
                      const float* PSPL_RESTRICT rf, std::size_t count)
{
    std::size_t j = 0;
#if defined(__AVX512F__)
    for (; j < count && (reinterpret_cast<std::uintptr_t>(dst + j) & 63u) != 0;
         ++j) {
        dst[j] = static_cast<double>(xf[j]) + static_cast<double>(rf[j]);
    }
    for (; j + 8 <= count; j += 8) {
        const __m512d vx = _mm512_cvtps_pd(_mm256_loadu_ps(xf + j));
        const __m512d vr = _mm512_cvtps_pd(_mm256_loadu_ps(rf + j));
        _mm512_stream_pd(dst + j, _mm512_add_pd(vx, vr));
    }
#elif defined(__AVX__)
    for (; j < count && (reinterpret_cast<std::uintptr_t>(dst + j) & 31u) != 0;
         ++j) {
        dst[j] = static_cast<double>(xf[j]) + static_cast<double>(rf[j]);
    }
    for (; j + 4 <= count; j += 4) {
        const __m256d vx = _mm256_cvtps_pd(_mm_loadu_ps(xf + j));
        const __m256d vr = _mm256_cvtps_pd(_mm_loadu_ps(rf + j));
        _mm256_stream_pd(dst + j, _mm256_add_pd(vx, vr));
    }
#endif
    for (; j < count; ++j) {
        dst[j] = static_cast<double>(xf[j]) + static_cast<double>(rf[j]);
    }
}

/// dst[j] = x[j] + widen(rf[j])
PSPL_FORCEINLINE_FUNCTION void
scatter_row_add_widen(double* PSPL_RESTRICT dst,
                      const double* PSPL_RESTRICT x,
                      const float* PSPL_RESTRICT rf, std::size_t count)
{
    std::size_t j = 0;
#if defined(__AVX512F__)
    for (; j < count && (reinterpret_cast<std::uintptr_t>(dst + j) & 63u) != 0;
         ++j) {
        dst[j] = x[j] + static_cast<double>(rf[j]);
    }
    for (; j + 8 <= count; j += 8) {
        const __m512d vx = _mm512_loadu_pd(x + j);
        const __m512d vr = _mm512_cvtps_pd(_mm256_loadu_ps(rf + j));
        _mm512_stream_pd(dst + j, _mm512_add_pd(vx, vr));
    }
#elif defined(__AVX__)
    for (; j < count && (reinterpret_cast<std::uintptr_t>(dst + j) & 31u) != 0;
         ++j) {
        dst[j] = x[j] + static_cast<double>(rf[j]);
    }
    for (; j + 4 <= count; j += 4) {
        const __m256d vx = _mm256_loadu_pd(x + j);
        const __m256d vr = _mm256_cvtps_pd(_mm_loadu_ps(rf + j));
        _mm256_stream_pd(dst + j, _mm256_add_pd(vx, vr));
    }
#endif
    for (; j < count; ++j) {
        dst[j] = x[j] + static_cast<double>(rf[j]);
    }
}

/// One tile of the pure-FP32 pipeline: gather-narrow straight into the
/// FP32 staging buffer (4-byte elements -- this is why Single tiles are
/// twice as wide as FP64 ones), solve, scatter.
template <int W, bool UseSpmv, class SrcView, class DstView>
PSPL_FORCEINLINE_FUNCTION void
solve_single_tile(const SchurFloatFactors& sf, const SrcView& src,
                  const DstView& dst, const BatchTile& t, std::size_t tc,
                  float* PSPL_RESTRICT xf)
{
    using DstScalar = std::remove_cv_t<std::remove_reference_t<decltype(dst(
            std::size_t{0}, std::size_t{0}))>>;
    constexpr int wf = 2 * W;
    const std::size_t n = sf.n;
    const std::size_t cols = t.cols();
    for (std::size_t r = 0; r < n; ++r) {
        float* PSPL_RESTRICT row = xf + r * tc;
        for (std::size_t j = 0; j < cols; ++j) {
            row[j] = static_cast<float>(src(r, t.begin + j));
        }
        for (std::size_t j = cols; j < tc; ++j) {
            row[j] = 0.0f;
        }
    }
    solve_strip<wf, UseSpmv>(sf, reinterpret_cast<simd<float, wf>*>(xf),
                             tc / wf, 0, tc / wf);
    // The streaming scatter writes each row as one contiguous run; a
    // batch-strided dst (LayoutLeft, a transposed view) takes the element
    // loop instead.
    const bool contiguous = dst.stride(1) == 1;
    for (std::size_t r = 0; r < n; ++r) {
        const float* PSPL_RESTRICT row = xf + r * tc;
        if constexpr (std::is_same_v<DstScalar, double>) {
            if (contiguous) {
                scatter_row_widen(&dst(r, t.begin), row, cols);
                continue;
            }
        }
        for (std::size_t j = 0; j < cols; ++j) {
            dst(r, t.begin + j) = static_cast<DstScalar>(row[j]);
        }
    }
    stream_fence();
}

/// One tile of the mixed-precision pipeline, processed at two levels:
///
///  * The *outer tile* (tc columns) exists for DRAM streaming. Gather
///    reads long contiguous row segments of the strided source block
///    (wide rows approach sequential bandwidth; narrow ones degrade to
///    line-granular reads at a fraction of it) and stages a pristine copy
///    at source precision (bf) plus its FP32 narrowing (xf).
///  * All compute then runs per *inner strip* (a few pack columns,
///    strip_cols below): FP32 solve, fused residual, refinement loop,
///    fallback and scatter complete for one strip before the next is
///    touched, so the strip's xf/bf/rf working set stays cache-resident
///    across the whole chain instead of cycling a multi-MB tile through
///    L2 once per stage.
///
/// Convergence decisions are per strip (norms fall out of the strip's
/// first residual pass), so one slow-converging column only costs extra
/// iterations for its own strip. `dst` receives the FP64-accurate
/// solution (may alias src: a strip is scattered only after its source
/// columns were staged). On the typical path -- contraction extrapolation
/// succeeds after the first residual -- the FP64 iterate is never
/// materialized: the scatter folds widen(xf) + widen(rf) straight into
/// dst with streaming stores. Per-tile outcomes land in the
/// instrumentation views; stage seconds accumulate into
/// stage_sec(2 * index) for the FP32 solves and stage_sec(2 * index + 1)
/// for the FP64 residual work.
template <int W, bool UseSpmv, class SrcView, class DstView>
PSPL_FORCEINLINE_FUNCTION void solve_mixed_tile(
        const SchurDeviceData& sd, const SchurFloatFactors& sf,
        const sparse::Coo& a, const SrcView& src, const DstView& dst,
        const BatchTile& t, std::size_t tc, double target, int max_iters,
        std::byte* slot, const View1D<int>& tile_iters,
        const View1D<int>& tile_fallback, const View1D<double>& stage_sec)
{
    using SrcScalar = std::remove_cv_t<std::remove_reference_t<decltype(src(
            std::size_t{0}, std::size_t{0}))>>;
    using DstScalar = std::remove_cv_t<std::remove_reference_t<decltype(dst(
            std::size_t{0}, std::size_t{0}))>>;
    constexpr int wf = 2 * W;
    // Inner strip width: 4 float packs. With AVX-512 that is 64 columns,
    // so one strip's xf + bf + rf working set is ~0.75 MB at n = 1000 --
    // solidly L2-resident through solve, residual and correction.
    constexpr std::size_t strip_cols = 4 * static_cast<std::size_t>(wf);
    const std::size_t n = sd.n;
    const std::size_t cols = t.cols();
    // Staging row pitch: one strip wider than the tile. Wide tiles have
    // near-power-of-two row strides, which would land every row of a
    // strip in the same few cache sets (8 KiB stride aliases the whole
    // strip onto four L1 sets); the pad skews successive rows across
    // sets. The pad region is never read or written.
    const std::size_t pitch = tc + strip_cols;
    const std::size_t count = n * pitch;
    const std::size_t fpacks = pitch / wf;
    double sec_f32 = 0.0;
    double sec_res = 0.0;

    // Slot layout (doubles first so every sub-buffer stays naturally
    // aligned): FP64 iterate, residual scratch row, staged RHS at source
    // precision, FP32 iterate, FP32 residual, then one byte per strip
    // recording how that strip's solution must be scattered (see the
    // epilogue below).
    double* PSPL_RESTRICT x = reinterpret_cast<double*>(slot);
    double* PSPL_RESTRICT rwork = x + count;
    SrcScalar* PSPL_RESTRICT bf = reinterpret_cast<SrcScalar*>(rwork + pitch);
    float* PSPL_RESTRICT xf = reinterpret_cast<float*>(bf + count);
    float* PSPL_RESTRICT rf = xf + count;
    unsigned char* PSPL_RESTRICT strip_state =
            reinterpret_cast<unsigned char*>(rf + count);

    // Gather: stage the pristine RHS tile and its FP32 narrowing in one
    // pass over long contiguous source row segments. Dead columns are
    // zero-padded so padded lanes stay finite through every solve stage
    // and contribute nothing to residual norms. The source row segments
    // sit a full batch row apart, which defeats the hardware prefetcher;
    // fetch a couple of rows ahead explicitly.
    constexpr std::size_t src_line = 64 / sizeof(SrcScalar);
    for (std::size_t r = 0; r < n; ++r) {
        if (r + 2 < n) {
            const SrcScalar* spf = &src(r + 2, t.begin);
            for (std::size_t j = 0; j < cols; j += src_line) {
                __builtin_prefetch(spf + j, 0, 2);
            }
        }
        SrcScalar* PSPL_RESTRICT brow = bf + r * pitch;
        float* PSPL_RESTRICT row = xf + r * pitch;
        for (std::size_t j = 0; j < cols; ++j) {
            const SrcScalar s = src(r, t.begin + j);
            brow[j] = s;
            row[j] = static_cast<float>(s);
        }
        for (std::size_t j = cols; j < tc; ++j) {
            brow[j] = SrcScalar(0);
            row[j] = 0.0f;
        }
    }

    int iters_max = 0;
    bool any_fallback = false;
    for (std::size_t c0 = 0; c0 < cols; c0 += strip_cols) {
        // Strip [c0, c0 + scols): pack columns [p0, p1). Strips past the
        // live columns hold only padding and are skipped outright.
        const std::size_t scols =
                tc - c0 < strip_cols ? tc - c0 : strip_cols;
        const std::size_t p0 = c0 / wf;
        const std::size_t p1 = (c0 + scols) / wf;
        const SrcScalar* PSPL_RESTRICT bs = bf + c0;
        float* PSPL_RESTRICT xs = xf + c0;
        float* PSPL_RESTRICT rs = rf + c0;
        double* PSPL_RESTRICT xd = x + c0;

        // A full strip solves as ONE simd<float, strip_cols> super-pack:
        // the fused chain is a row recurrence, and a full-width strip
        // advances four cache lines per row step instead of one, which
        // keeps enough misses in flight to hide L3 latency once the
        // staged tile outgrows L2 (measured ~15% over per-pack order,
        // plus the factor arrays are traversed once per strip instead of
        // once per pack). Partial tail strips take the per-pack path.
        const auto solve_f32 = [&](float* PSPL_RESTRICT buf) {
            constexpr int wfs = static_cast<int>(strip_cols);
            if (tc % strip_cols == 0 && scols == strip_cols) {
                const std::size_t c = c0 / strip_cols;
                solve_strip<wfs, UseSpmv>(
                        sf, reinterpret_cast<simd<float, wfs>*>(buf),
                        pitch / strip_cols, c, c + 1);
            } else {
                solve_strip<wf, UseSpmv>(
                        sf, reinterpret_cast<simd<float, wf>*>(buf), fpacks,
                        p0, p1);
            }
        };

        // Initial FP32 solve of the strip.
        profiling::Timer t_f32;
        solve_f32(xf);
        sec_f32 += t_f32.seconds();

        // First fused residual pass: r = b - A * widen(xf); writes the
        // correction RHS rf = narrow(r), the strip's max|b|, and returns
        // max|r| -- one sweep.
        profiling::Timer t_res;
        double norm_b = 0.0;
        const double max_r = refine_detail::residual_initial(
                a, bs, xs, rs, n, pitch, scols, rwork, norm_b);
        double rel = norm_b > 0.0 ? max_r / norm_b : 0.0;
        sec_res += t_res.seconds();
        bool converged = rel <= target; // NaN-safe: NaN -> not converged
        // Iterative refinement contracts max|r| by the same factor each
        // step, and that factor *is* rel (the first residual, starting
        // from max|r_0| = max|b|). Once one more correction provably
        // lands below target, apply it and skip the trailing verification
        // spmv. NaN-safe: NaN * NaN <= target is false.
        bool pending = false; // correction solved into rf, not applied
        bool have_x = false;  // FP64 iterate materialized in x
        int iters = 0;
        if (!converged && rel * rel <= target && max_iters >= 1) {
            profiling::Timer t_corr;
            solve_f32(rf);
            sec_f32 += t_corr.seconds();
            iters = 1;
            pending = true;
            converged = true;
        }
        if (!converged && iters < max_iters) {
            // General loop: materialize the FP64 iterate and track actual
            // residuals (ill-conditioned or slowly-contracting strips).
            profiling::Timer t_mat;
            for (std::size_t r = 0; r < n; ++r) {
                double* PSPL_RESTRICT xr = xd + r * pitch;
                const float* PSPL_RESTRICT fr = xs + r * pitch;
                for (std::size_t j = 0; j < scols; ++j) {
                    xr[j] = static_cast<double>(fr[j]);
                }
            }
            sec_res += t_mat.seconds();
            have_x = true;
            double prev = rel;
            while (!converged && iters < max_iters) {
                profiling::Timer t_corr;
                solve_f32(rf);
                sec_f32 += t_corr.seconds();
                profiling::Timer t_upd;
                refine_detail::tile_accumulate_widen(xd, rs, n, pitch, scols);
                ++iters;
                rel = refine_detail::residual_from_x(a, bs, xd, rs, n, pitch,
                                                     scols, rwork)
                      / norm_b;
                sec_res += t_upd.seconds();
                converged = rel <= target;
                if (converged) {
                    break;
                }
                if (!(rel < prev * 0.5)) {
                    break; // stalled (or non-finite): stop burning iters
                }
                // Same extrapolation as above, with the contraction
                // measured over the last step: rel * (rel / prev) is
                // where one more correction lands.
                if (iters < max_iters && rel * (rel / prev) <= target) {
                    profiling::Timer t_fin;
                    solve_f32(rf);
                    sec_f32 += t_fin.seconds();
                    ++iters;
                    pending = true;
                    converged = true;
                    break;
                }
                prev = rel;
            }
        }
        if (!converged) {
            // Hard FP64 fallback: the staged RHS strip is still pristine,
            // so widen it and run the reference ladder on it.
            any_fallback = true;
            pending = false;
            have_x = true;
            for (std::size_t r = 0; r < n; ++r) {
                double* PSPL_RESTRICT xr = xd + r * pitch;
                const SrcScalar* PSPL_RESTRICT br = bs + r * pitch;
                for (std::size_t j = 0; j < scols; ++j) {
                    xr[j] = static_cast<double>(br[j]);
                }
            }
            const auto wide = static_cast<std::size_t>(W);
            solve_strip<W, UseSpmv>(sd, reinterpret_cast<simd<double, W>*>(x),
                                    pitch / wide, c0 / wide,
                                    (c0 + scols) / wide);
        }
        if (iters > iters_max) {
            iters_max = iters;
        }
        // How this strip's solution leaves the slot: 0 = widen(xf),
        // 1 = widen(xf) + widen(rf) (pending correction -- a lone add,
        // contraction-safe in any TU), 2 = copy x, 3 = x + widen(rf).
        strip_state[c0 / strip_cols] = static_cast<unsigned char>(
                have_x ? (pending ? 3u : 2u) : (pending ? 1u : 0u));
    }

    // Scatter epilogue: one pass over the tile rows. Writing the whole
    // dst row segment back to back turns the streaming stores into a
    // single sequential burst per row (the per-strip dispatch only picks
    // source pointers; dst addresses stay consecutive across strips). A
    // batch-strided dst (LayoutLeft, a transposed view) has no contiguous
    // row segment and takes the element loop.
    const bool contiguous = dst.stride(1) == 1;
    for (std::size_t r = 0; r < n; ++r) {
        if (r + 4 < n) {
            const float* fpf = xf + (r + 4) * pitch;
            const float* dpf = rf + (r + 4) * pitch;
            for (std::size_t j = 0; j < cols; j += 16) {
                __builtin_prefetch(fpf + j, 0, 1);
                __builtin_prefetch(dpf + j, 0, 1);
            }
        }
        for (std::size_t c0 = 0; c0 < cols; c0 += strip_cols) {
            const std::size_t scols =
                    tc - c0 < strip_cols ? tc - c0 : strip_cols;
            const std::size_t live = cols - c0 < scols ? cols - c0 : scols;
            const unsigned state = strip_state[c0 / strip_cols];
            const double* PSPL_RESTRICT xrow = x + r * pitch + c0;
            const float* PSPL_RESTRICT frow = xf + r * pitch + c0;
            const float* PSPL_RESTRICT drow = rf + r * pitch + c0;
            if constexpr (std::is_same_v<DstScalar, double>) {
                if (contiguous) {
                    double* out = &dst(r, t.begin + c0);
                    switch (state) {
                    case 0: scatter_row_widen(out, frow, live); break;
                    case 1:
                        scatter_row_sum_widen(out, frow, drow, live);
                        break;
                    case 2: scatter_row_copy(out, xrow, live); break;
                    default:
                        scatter_row_add_widen(out, xrow, drow, live);
                        break;
                    }
                    continue;
                }
            }
            for (std::size_t j = 0; j < live; ++j) {
                double v;
                switch (state) {
                case 0: v = static_cast<double>(frow[j]); break;
                case 1:
                    v = static_cast<double>(frow[j])
                        + static_cast<double>(drow[j]);
                    break;
                case 2: v = xrow[j]; break;
                default:
                    v = xrow[j] + static_cast<double>(drow[j]);
                    break;
                }
                dst(r, t.begin + c0 + j) = static_cast<DstScalar>(v);
            }
        }
    }
    stream_fence();
    tile_iters(t.index) = iters_max;
    tile_fallback(t.index) = any_fallback ? 1 : 0;
    stage_sec(2 * t.index) = sec_f32;
    stage_sec(2 * t.index + 1) = sec_res;
}

} // namespace detail

/// Per-element staging footprint of the mixed pipeline (FP64 iterate +
/// FP32 iterate + FP32 residual + pristine RHS at source precision), the
/// `staging_bytes` fed to the tile model -- element size drives the tile
/// width, so an FP32-sourced mixed tile is wider than the FP64 path's and
/// a pure-FP32 tile (sizeof(float)) is wider still.
constexpr std::size_t mixed_staging_bytes(std::size_t src_value_bytes)
{
    return sizeof(double) + 2 * sizeof(float) + src_value_bytes;
}

/// Reduced-precision batched solve: every column of `src` (shape (n,
/// batch), double or float elements) is solved into `dst` (same shape; may
/// be the same view for an in-place solve). Precision::Single runs the
/// FP32 pipeline end to end; Precision::Mixed adds the FP64 refinement
/// loop and the FP64 fallback. Precision::Double is the caller's job --
/// route through schur_solve_batched, which this driver never perturbs.
template <class Exec = DefaultExecutionSpace, class SrcView, class DstView>
RefinementStats solve_refined_batched(
        const SchurSolver& solver, const SrcView& src, const DstView& dst,
        Precision prec, const RefinementOptions& opt = {},
        const TilePolicy& policy = TilePolicy::from_env(),
        bool use_spmv = true)
{
    PSPL_EXPECT(prec != Precision::Double,
                "solve_refined_batched: Precision::Double belongs on the "
                "FP64 ladder (schur_solve_batched)");
    const SchurDeviceData& sd = solver.device_data();
    const SchurFloatFactors& sf = solver.float_factors();
    const sparse::Coo& a = solver.matrix_coo();
    constexpr int W = simd_preferred_width<double>;
    constexpr std::size_t wf = 2 * static_cast<std::size_t>(W);
    const std::size_t n = sd.n;
    const std::size_t batch = src.extent(1);
    PSPL_EXPECT(src.extent(0) == n, "solve_refined_batched: bad RHS rows");
    PSPL_EXPECT(dst.extent(0) == n && dst.extent(1) == batch,
                "solve_refined_batched: src/dst shape mismatch");
    RefinementStats stats;
    if (batch == 0) {
        return stats;
    }
    using SrcScalar = std::remove_cv_t<std::remove_reference_t<decltype(src(
            std::size_t{0}, std::size_t{0}))>>;
    const bool single = prec == Precision::Single;
    const std::size_t staging = single
                                        ? sizeof(float)
                                        : mixed_staging_bytes(
                                                  sizeof(SrcScalar));
    // Tile width. Single runs the whole chain on one staged buffer, so it
    // takes the shared tile rule (Off included: this pipeline must
    // stage). Mixed compute is strip-mined inside the tile (see
    // solve_mixed_tile), so its outer tile balances two pressures instead:
    // wide rows make the strided gather read near-sequential, but the slot
    // is re-walked by every stage, so it must stay L3-warm -- a 6 MiB slot
    // wins over streaming widths in measurement (explicit PSPL_TILE widths
    // are still honored -- that is what ablations are for).
    std::size_t tc;
    if (single || policy.mode == TilePolicy::Mode::Explicit) {
        tc = policy.tile_cols(n * staging, batch, wf, 0);
    } else {
        // Round to whole 4-pack strips so every full strip takes the
        // super-pack solve path.
        constexpr std::size_t slot_target = std::size_t{6} << 20;
        const std::size_t strip = 4 * wf;
        std::size_t w = n > 0 ? slot_target / (n * staging) : strip;
        w = (w / strip) * strip;
        if (w < wf) {
            w = wf;
        }
        if (w > 2048) {
            w = 2048;
        }
        const std::size_t batch_up = ((batch + wf - 1) / wf) * wf;
        tc = w < batch_up ? w : batch_up;
    }
    const std::size_t ntiles = (batch + tc - 1) / tc;

    // Per-thread staging carved out of the persistent arena (see the slot
    // layout in solve_mixed_tile) plus one scratch row for the fused
    // residual pass; Single stages FP32 only. Mixed rows carry one strip
    // of pitch padding (cache-set skew, see solve_mixed_tile).
    const std::size_t pitch = single ? tc : tc + 4 * wf;
    // Mixed slots append one rwork row plus one byte per column for the
    // per-strip scatter states (pitch bytes is a comfortable upper bound).
    const std::size_t bytes_per_slot =
            n * pitch * staging
            + (single ? 0 : pitch * (sizeof(double) + 1));
    WorkspaceArena& arena = host_workspace_arena();
    arena.reserve(static_cast<std::size_t>(Exec::concurrency()),
                  bytes_per_slot);
    debug::ScratchGuard scratch(arena.data(), arena.size_bytes());
    std::byte* const abase = arena.data();
    const std::size_t astride = arena.slot_stride_bytes();

    // Per-tile instrumentation, written from inside the ([=]-captured)
    // kernel through shallow views and reduced after the dispatch.
    View1D<int> tile_iters("refine_tile_iters", ntiles);
    View1D<int> tile_fallback("refine_tile_fallback", ntiles);
    View1D<double> stage_sec("refine_stage_seconds", 2 * ntiles);

    const double target = opt.rel_residual_target;
    const int max_iters = opt.max_iters;
    const char* label = single ? "pspl::refine::SingleSolveTile"
                               : "pspl::refine::MixedSolveTile";
    for_each_batch_tile(label, RangePolicy<Exec>(batch), tc,
                        [=](const BatchTile& t) {
        std::byte* const slot =
                abase + astride * static_cast<std::size_t>(Exec::thread_rank());
        if (single) {
            float* PSPL_RESTRICT xf = reinterpret_cast<float*>(slot);
            if (use_spmv) {
                detail::solve_single_tile<W, true>(sf, src, dst, t, tc, xf);
            } else {
                detail::solve_single_tile<W, false>(sf, src, dst, t, tc, xf);
            }
            tile_iters(t.index) = 0;
            tile_fallback(t.index) = 0;
            return;
        }
        if (use_spmv) {
            detail::solve_mixed_tile<W, true>(sd, sf, a, src, dst, t, tc,
                                              target, max_iters, slot,
                                              tile_iters, tile_fallback,
                                              stage_sec);
        } else {
            detail::solve_mixed_tile<W, false>(sd, sf, a, src, dst, t, tc,
                                               target, max_iters, slot,
                                               tile_iters, tile_fallback,
                                               stage_sec);
        }
    });

    stats.tiles = ntiles;
    for (std::size_t i = 0; i < ntiles; ++i) {
        stats.refine_iters = tile_iters(i) > stats.refine_iters
                                     ? tile_iters(i)
                                     : stats.refine_iters;
        stats.fallback_tiles += tile_fallback(i) > 0 ? 1 : 0;
    }

    // Per-stage spans + modeled counters. The FP32 chain moves 4-byte
    // elements, so its bytes are the FP64 model's at half weight; each
    // refinement iteration adds the residual pass (2 flops per structural
    // nonzero per column, cache-resident r/x update traffic) on top.
    if (profiling::enabled()) {
        double sec_f32 = 0.0;
        double sec_res = 0.0;
        for (std::size_t i = 0; i < ntiles; ++i) {
            sec_f32 += stage_sec(2 * i);
            sec_res += stage_sec(2 * i + 1);
        }
        const auto nb = static_cast<double>(batch);
        const batched::KernelCost c64 =
                detail::total_solve_cost(sd, batch, use_spmv);
        const double passes = 1.0 + static_cast<double>(stats.refine_iters);
        profiling::record("solve_f32", sec_f32);
        profiling::add_counters("solve_f32", 0.5 * c64.bytes * passes,
                                c64.flops * passes);
        if (!single) {
            const double nnz_d = static_cast<double>(a.nnz());
            const double nd = static_cast<double>(n);
            profiling::record("refine_iter", sec_res);
            profiling::add_counters("refine_iter",
                                    passes * nb
                                            * static_cast<double>(staging)
                                            * nd,
                                    passes * nb * 2.0 * nnz_d);
        }
    }
    return stats;
}

/// In-place convenience overload: solve every column of `b` at the given
/// reduced precision.
template <class Exec = DefaultExecutionSpace, class BView>
RefinementStats solve_refined_batched(
        const SchurSolver& solver, const BView& b, Precision prec,
        const RefinementOptions& opt = {},
        const TilePolicy& policy = TilePolicy::from_env(),
        bool use_spmv = true)
{
    return solve_refined_batched<Exec>(solver, b, b, prec, opt, policy,
                                       use_spmv);
}

} // namespace pspl::core
