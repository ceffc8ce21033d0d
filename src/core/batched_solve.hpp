// Batched drivers for the Schur-complement solve: one fixed factorized
// matrix against every column of a (n, batch) right-hand-side block. The
// three versions are the paper's optimization ladder (Table III); they are
// free functions so every builder flavour (Greville, Hermite, 2-D tensor)
// shares the exact same kernels.
#pragma once

#include "batched/batched.hpp"
#include "core/concepts.hpp"
#include "core/schur_solver.hpp"
#include "debug/registry.hpp"
#include "parallel/arena.hpp"
#include "parallel/parallel.hpp"
#include "parallel/simd.hpp"
#include "parallel/simd_view.hpp"
#include "parallel/subview.hpp"
#include "parallel/tiling.hpp"
#include "parallel/view.hpp"

#include <cstdio>
#include <utility>

namespace pspl::core {

enum class BuilderVersion {
    Baseline = 0,
    Fused = 1,
    FusedSpmv = 2,
    /// Fused kernel with simd_chain_width batch entries per iteration in
    /// simd<double, 8> packs, on every ISA: the pack spans 4 registers on
    /// SSE2, 2 on AVX2 and 1 on AVX-512, so 4, 2 or 1 independent
    /// recurrences are in flight per instruction stream.
    FusedSimd = 3,
    /// FusedSpmv with the same SIMD-across-batch mapping.
    FusedSpmvSimd = 4,
};

const char* to_string(BuilderVersion v);

/// Pack width of the FP64 SIMD column chain (FusedSimd, FusedSpmvSimd and
/// the fused advection plan), fixed so every translation unit -- whatever
/// ISA it targets -- stages the same packs. Each lane performs the scalar
/// chain's operations, so the width never changes a bit of the result.
inline constexpr int simd_chain_width = 8;

/// The builder version every default-constructed builder, advection and
/// Vlasov driver runs: the COO-spmv chain on simd_chain_width packs.
inline constexpr BuilderVersion default_builder_version =
        BuilderVersion::FusedSpmvSimd;

/// The fused chain a BuilderVersion selects: the corner-correction flavour
/// (COO spmv, Listing 6, or dense gemv, Listing 4) and the pack width of
/// the column chain (1 = one column at a time, otherwise
/// simd_chain_width). Baseline decodes as the spmv chain at width 1; only
/// the reduced-precision pipeline, which has no multi-pass rung, reads it.
struct FusedChain {
    bool use_spmv;
    int pack_width;
};

constexpr FusedChain fused_chain(BuilderVersion v)
{
    switch (v) {
    case BuilderVersion::Fused:
        return {false, 1};
    case BuilderVersion::FusedSimd:
        return {false, simd_chain_width};
    case BuilderVersion::FusedSpmvSimd:
        return {true, simd_chain_width};
    case BuilderVersion::Baseline:
    case BuilderVersion::FusedSpmv:
        break;
    }
    return {true, 1};
}

namespace detail {

/// Modeled per-column cost of the Q-solve, dispatching on the factor kind
/// (the same hand counts each serial kernel exposes as cost()).
inline batched::KernelCost q_solve_cost(const SchurDeviceData& s)
{
    switch (s.kind) {
    case SolverKind::PTTRS:
        return batched::SerialPttrs<>::cost(s.n0);
    case SolverKind::GTTRS:
        return batched::SerialGttrs<>::cost(s.n0);
    case SolverKind::PBTRS:
        return batched::SerialPbtrs<>::cost(s.n0, s.pb_ab.extent(0) - 1);
    case SolverKind::GBTRS:
        return batched::SerialGbtrs<>::cost(s.n0, s.kl, s.ku);
    case SolverKind::GETRS:
        return batched::SerialGetrs<>::cost(s.n0);
    }
    return {};
}

/// Span label of the Q-solve child, matching the LAPACK routine name the
/// paper's per-kernel profiles use.
inline const char* q_solve_label(SolverKind kind)
{
    switch (kind) {
    case SolverKind::PTTRS:
        return "pttrs";
    case SolverKind::GTTRS:
        return "gttrs";
    case SolverKind::PBTRS:
        return "pbtrs";
    case SolverKind::GBTRS:
        return "gbtrs";
    case SolverKind::GETRS:
        return "getrs";
    }
    return "qsolve";
}

/// Modeled whole-launch cost of one fused batched solve (Q-solve plus the
/// Schur correction when the corner is non-empty).
inline batched::KernelCost total_solve_cost(const SchurDeviceData& s,
                                            std::size_t batch, bool use_spmv)
{
    const auto nb = static_cast<double>(batch);
    batched::KernelCost total = q_solve_cost(s) * nb;
    if (s.k > 0) {
        if (use_spmv) {
            total += (batched::SerialSpmvCoo::cost(s.lambda_coo.nnz(), s.k)
                      + batched::SerialSpmvCoo::cost(s.beta_coo.nnz(), s.n0))
                     * nb;
        } else {
            total += (batched::SerialGemv<>::cost(s.k, s.n0)
                      + batched::SerialGemv<>::cost(s.n0, s.k))
                     * nb;
        }
        total += batched::SerialGetrs<>::cost(s.k) * nb;
    }
    return total;
}

/// Attribute the modeled bytes/flops of one batched solve to the open span
/// tree: the whole-launch total lands on `kernel_label` (merging with the
/// timed span the dispatch layer just closed, so the snapshot derives its
/// achieved bandwidth), and each algorithm stage lands on its own child
/// label (pttrs/gemv/spmv_coo/getrs decomposition of a fused kernel).
inline void attribute_solve_cost(const SchurDeviceData& s,
                                 std::string_view kernel_label,
                                 std::size_t batch, bool use_spmv)
{
    if (!profiling::enabled() || batch == 0) {
        return;
    }
    const auto nb = static_cast<double>(batch);
    const batched::KernelCost q = q_solve_cost(s) * nb;
    profiling::add_counters(q_solve_label(s.kind), q.bytes, q.flops);
    if (s.k > 0) {
        batched::KernelCost corner;
        if (use_spmv) {
            corner = (batched::SerialSpmvCoo::cost(s.lambda_coo.nnz(), s.k)
                      + batched::SerialSpmvCoo::cost(s.beta_coo.nnz(), s.n0))
                     * nb;
            profiling::add_counters("spmv_coo", corner.bytes, corner.flops);
        } else {
            corner = (batched::SerialGemv<>::cost(s.k, s.n0)
                      + batched::SerialGemv<>::cost(s.n0, s.k))
                     * nb;
            profiling::add_counters("gemv", corner.bytes, corner.flops);
        }
        const batched::KernelCost schur =
                batched::SerialGetrs<>::cost(s.k) * nb;
        profiling::add_counters("getrs_schur", schur.bytes, schur.flops);
    }
    const batched::KernelCost total = total_solve_cost(s, batch, use_spmv);
    profiling::add_counters(kernel_label, total.bytes, total.flops);
}

/// Per-tile-size span attribution for tiled fused runs: records the timed
/// launch once more under a "tile_w=<cols>" leaf carrying the same modeled
/// cost, so report_json derives achieved bandwidth *per tile size* next to
/// the per-kernel decomposition. Transient label: the interner copies it.
inline void attribute_tile_span(const SchurDeviceData& s, std::size_t batch,
                                bool use_spmv, std::size_t tile_cols,
                                double seconds)
{
    if (!profiling::enabled() || batch == 0) {
        return;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "tile_w=%zu", tile_cols);
    profiling::record(label, seconds);
    const batched::KernelCost total = total_solve_cost(s, batch, use_spmv);
    profiling::add_counters(label, total.bytes, total.flops);
}

template <class Exec, class BView>
void solve_baseline(const SchurDeviceData& s, const BView& b,
                    std::size_t batch)
{
    const auto b0 = subview(b, std::pair<std::size_t, std::size_t>(0, s.n0),
                            ALL);
    const auto nb = static_cast<double>(batch);
    // Kernel 1: batched serial Q-solve (pttrs/gttrs/pbtrs/gbtrs/getrs).
    parallel_for("pspl::batched::SerialQsolve", RangePolicy<Exec>(batch),
                 [=](std::size_t i) {
                     auto sub_b0 = subview(b0, ALL, i);
                     solve_q_serial(s, sub_b0);
                 });
    if (profiling::enabled()) {
        const batched::KernelCost q = q_solve_cost(s) * nb;
        profiling::add_counters("pspl::batched::SerialQsolve", q.bytes,
                                q.flops);
    }
    if (s.k == 0) {
        return;
    }
    const auto b1 = subview(b, std::pair<std::size_t, std::size_t>(s.n0, s.n),
                            ALL);
    // Kernel 2: global GEMM  b1 -= lambda * x0'.
    blas::gemm<Exec>("pspl::blas::gemm_lambda", -1.0, s.lambda_dense, b0, 1.0,
                     b1);
    // Kernel 3: batched serial getrs on the Schur complement.
    parallel_for("pspl::batched::SerialGetrs", RangePolicy<Exec>(batch),
                 [=](std::size_t i) {
                     auto sub_b1 = subview(b1, ALL, i);
                     batched::SerialGetrs<>::invoke(s.delta_lu, s.delta_ipiv,
                                                    sub_b1);
                 });
    // Kernel 4: global GEMM  x0 = x0' - beta * x1.
    blas::gemm<Exec>("pspl::blas::gemm_beta", -1.0, s.beta_dense, b1, 1.0,
                     b0);
    if (profiling::enabled()) {
        // In the unfused ladder rung every stage is its own timed kernel, so
        // the modeled costs land directly on those kernel labels.
        const batched::KernelCost gl = batched::SerialGemv<>::cost(s.k, s.n0) * nb;
        profiling::add_counters("pspl::blas::gemm_lambda", gl.bytes, gl.flops);
        const batched::KernelCost sc = batched::SerialGetrs<>::cost(s.k) * nb;
        profiling::add_counters("pspl::batched::SerialGetrs", sc.bytes,
                                sc.flops);
        const batched::KernelCost gb = batched::SerialGemv<>::cost(s.n0, s.k) * nb;
        profiling::add_counters("pspl::blas::gemm_beta", gb.bytes, gb.flops);
    }
}

/// Strided span of packs with the rank-1 view interface the batched
/// kernels expect. The staged drivers gather batch columns into a
/// row-major pack strip and walk one pack column of it (step = packs per
/// strip row); the serial kernels consume only data()/stride(0)/extent(),
/// so a pack column goes through the identical kernel code as a strided
/// column subview.
template <class T, int W>
struct PackSpan {
    using value_type = simd<T, W>;
    static constexpr std::size_t rank = 1; ///< models pspl::ViewLike

    simd<T, W>* PSPL_RESTRICT ptr = nullptr;
    std::size_t len = 0;
    std::size_t step = 1; ///< pack stride between consecutive rows

    PSPL_FORCEINLINE_FUNCTION simd<T, W>& operator()(std::size_t i) const
    {
        PSPL_DEBUG_ASSERT(i < len, "PackSpan: index out of bounds");
        return ptr[i * step];
    }
    PSPL_FORCEINLINE_FUNCTION std::size_t extent(std::size_t) const
    {
        return len;
    }
    PSPL_FORCEINLINE_FUNCTION simd<T, W>* data() const { return ptr; }
    PSPL_FORCEINLINE_FUNCTION std::size_t stride(std::size_t) const
    {
        return step;
    }
};

} // namespace detail

/// The Algorithm-1 chain on one right-hand side, split into its Q block
/// `b0` (n0 rows) and Schur block `b1` (k rows): Q-solve, corner update,
/// Schur getrs, corner update -- the paper's fused kernels (Listings 4 and
/// 6), which differ only in the corner step. Generic over the rank-1 view
/// type (a strided column subview or a PackSpan of staged packs) and over
/// the device-data flavour: SchurDeviceData drives the FP64 ladder, and
/// SchurFloatFactors the FP32 strips of the mixed-precision pipeline
/// (whose factors and COO blocks are FP32, so every stage runs at the pack
/// precision). Every fused driver runs this one chain per column, which is
/// what makes them bitwise identical to each other.
template <bool UseSpmv, class SData, class B0View, class B1View>
PSPL_FORCEINLINE_FUNCTION void solve_column(const SData& s, const B0View& b0,
                                            const B1View& b1)
{
    solve_q_serial(s, b0);
    if (s.k > 0) {
        if constexpr (UseSpmv) {
            batched::SerialSpmvCoo::invoke(-1.0, s.lambda_coo, b0, b1);
        } else {
            batched::SerialGemv<>::invoke(-1.0, s.lambda_dense, b0, 1.0, b1);
        }
        batched::SerialGetrs<>::invoke(s.delta_lu, s.delta_ipiv, b1);
        if constexpr (UseSpmv) {
            batched::SerialSpmvCoo::invoke(-1.0, s.beta_coo, b1, b0);
        } else {
            batched::SerialGemv<>::invoke(-1.0, s.beta_dense, b1, 1.0, b0);
        }
    }
}

/// Algorithm 1 on one unsplit right-hand side `b` (n rows, any rank-1
/// view): the COO column chain on its split at n0, or the Q-solve alone
/// when A has no Schur border (b1 would be empty and its view would point
/// past the end of b). Callable inside kernels; the single-column entry
/// point for callers outside the batched drivers.
template <class SData, class BView>
PSPL_INLINE_FUNCTION void solve_one(const SData& s, const BView& b)
{
    if (s.k == 0) {
        solve_q_serial(s, b);
        return;
    }
    using Rows = std::pair<std::size_t, std::size_t>;
    solve_column<true>(s, subview(b, Rows(0, s.n0)),
                       subview(b, Rows(s.n0, s.n)));
}

/// Run the column chain on pack columns [c_begin, c_end) of a row-major
/// staged strip: `buf` holds s.n rows of `packs` packs each. This is the
/// one strip loop behind the staged SIMD builder driver, the fused
/// advection pipeline (which evaluates splines straight from the
/// L2-resident strip) and the FP32, super-pack and FP64-fallback strips of
/// the mixed-precision pipeline. W = 1 is the scalar chain.
template <int W, bool UseSpmv, class T, class SData>
PSPL_FORCEINLINE_FUNCTION void solve_strip(const SData& s,
                                           simd<T, W>* PSPL_RESTRICT buf,
                                           std::size_t packs,
                                           std::size_t c_begin,
                                           std::size_t c_end)
{
    static_assert(SimdLaneCount<W>,
                  "solve_strip pack width must be a positive power of two "
                  "(W = 1 is the scalar fused chain)");
    for (std::size_t c = c_begin; c < c_end; ++c) {
        const detail::PackSpan<T, W> b0{buf + c, s.n0, packs};
        const detail::PackSpan<T, W> b1{
                s.k > 0 ? buf + s.n0 * packs + c : buf, s.k, packs};
        solve_column<UseSpmv>(s, b0, b1);
    }
}

namespace detail {

/// Tile width of the FP64 builder drivers: the shared tile rule over n
/// doubles per column, or 0 -- one pack per tile, no "tile_w=" span --
/// when the policy streams the block.
inline std::size_t builder_tile_cols(const TilePolicy& policy, std::size_t n,
                                     std::size_t batch,
                                     std::size_t pack_width)
{
    const std::size_t col_bytes = n * sizeof(double);
    return policy.streams(col_bytes, batch)
                   ? 0
                   : policy.tile_cols(col_bytes, batch, pack_width, 0);
}

/// In-place fused solve, one column at a time: each thread walks the
/// columns of its batch tiles straight in the RHS block. Tiling groups the
/// columns a thread visits into L2-sized spans (bounding the factor
/// re-sweep distance) without changing any per-column arithmetic; an
/// untiled run (tile = 0) dispatches one column per iteration.
/// Kept beside solve_staged<1>, which lost 5 of 6 build_table3 pairs
/// (0.185 -> 0.286 s per step; EXPERIMENTS.md, "One tile-width rule").
template <bool UseSpmv, class Exec, class BView>
void solve_inplace(const SchurDeviceData& s, const BView& b,
                   std::size_t batch, std::size_t tile)
{
    const auto b0 = subview(b, std::pair<std::size_t, std::size_t>(0, s.n0),
                            ALL);
    const auto b1 = subview(b, std::pair<std::size_t, std::size_t>(s.n0, s.n),
                            ALL);
    const char* label = UseSpmv ? "pspl::batched::SerialQsolve-Spmv"
                                : "pspl::batched::SerialQsolve-Gemv";
    const std::size_t cols = tile > 0 ? tile : 1;
    profiling::Timer timer;
    for_each_batch_tile(label, RangePolicy<Exec>(batch), cols,
                        [=](const BatchTile& t) {
        for (std::size_t i = t.begin; i < t.end; ++i) {
            const auto x0 = subview(b0, ALL, i);
            if (s.k > 0) {
                solve_column<UseSpmv>(s, x0, subview(b1, ALL, i));
            } else {
                // No Schur block: b1 is empty, and its column views would
                // point past the end of b.
                solve_q_serial(s, x0);
            }
        }
    });
    attribute_solve_cost(s, label, batch, UseSpmv);
    if (tile > 0) {
        attribute_tile_span(s, batch, UseSpmv, cols, timer.seconds());
    }
}

/// Staged SIMD solve: gather a (n, tile) block of RHS columns into a
/// per-thread arena slot (row-major in packs, so the loads sweep long
/// contiguous runs of `b` instead of one isolated pack per row), run the
/// column chain on every pack column while the tile is L2-resident (the
/// Q-solve recurrence then advances W columns per vector instruction),
/// and scatter the tile back. Tail lanes are zero-filled. An untiled run
/// (tile = 0) stages one pack per tile. Tiles are multiples of W columns,
/// so pack boundaries -- and therefore results, bitwise -- do not depend
/// on the tile width.
template <int W, bool UseSpmv, class Exec, class BView>
void solve_staged(const SchurDeviceData& s, const BView& b,
                  std::size_t batch, std::size_t tile)
{
    using Pack = simd<double, W>;
    const auto wide = static_cast<std::size_t>(W);
    PSPL_DEBUG_ASSERT(tile % wide == 0,
                      "solve_staged: tile must be a multiple of the pack "
                      "width");
    const std::size_t cols = tile > 0 ? tile : wide;
    // Per-thread staging carved out of the persistent workspace arena (no
    // heap allocation per solve call). The scratch guard tells the
    // write-conflict detector that per-thread reuse of the slot across
    // tiles is staging, not a cross-batch race.
    WorkspaceArena& arena = host_workspace_arena();
    arena.reserve(static_cast<std::size_t>(Exec::concurrency()),
                  s.n * (cols / wide) * sizeof(Pack));
    debug::ScratchGuard scratch(arena.data(), arena.size_bytes());
    std::byte* const abase = arena.data();
    const std::size_t astride = arena.slot_stride_bytes();
    const char* label = UseSpmv ? "pspl::batched::SerialQsolve-Spmv-Simd"
                                : "pspl::batched::SerialQsolve-Gemv-Simd";
    profiling::Timer timer;
    for_each_batch_tile(label, RangePolicy<Exec>(batch), cols,
                        [=](const BatchTile& t) {
        Pack* PSPL_RESTRICT buf = reinterpret_cast<Pack*>(
                abase
                + astride * static_cast<std::size_t>(Exec::thread_rank()));
        const std::size_t packs = (t.cols() + wide - 1) / wide;
        // Gather phase: row-major staging -- each matrix row contributes
        // one contiguous (cols * 8 B) run of the RHS block, which is what
        // engages the hardware stream prefetcher.
        for (std::size_t r = 0; r < s.n; ++r) {
            Pack* PSPL_RESTRICT row = buf + r * packs;
            for (std::size_t c = 0; c < packs; ++c) {
                const std::size_t j0 = t.begin + c * wide;
                const int lanes = j0 + wide <= t.end
                                          ? W
                                          : static_cast<int>(t.end - j0);
                row[c] = simd_load_lanes<W>(b, r, j0, lanes);
            }
        }
        solve_strip<W, UseSpmv>(s, buf, packs, 0, packs);
        // Scatter phase: mirror of the gather.
        for (std::size_t r = 0; r < s.n; ++r) {
            const Pack* PSPL_RESTRICT row = buf + r * packs;
            for (std::size_t c = 0; c < packs; ++c) {
                const std::size_t j0 = t.begin + c * wide;
                const int lanes = j0 + wide <= t.end
                                          ? W
                                          : static_cast<int>(t.end - j0);
                simd_store_lanes<W>(row[c], b, r, j0, lanes);
            }
        }
    });
    attribute_solve_cost(s, label, batch, UseSpmv);
    if (tile > 0) {
        attribute_tile_span(s, batch, UseSpmv, cols, timer.seconds());
    }
}

} // namespace detail

/// Explicit-width SIMD batched solve (the ablation entry point): packs of W
/// adjacent columns through the fused (dense-gemv) or fused-spmv chain.
/// The tile policy (PSPL_TILE by default) selects the L2-blocked tile
/// width; "off" stages one pack at a time.
template <int W, class Exec = DefaultExecutionSpace, class BView>
void schur_solve_batched_simd(const SchurDeviceData& s, const BView& b,
                              bool use_spmv = true,
                              const TilePolicy& policy = TilePolicy::from_env())
{
    static_assert(BatchBlockView<BView>,
                  "schur_solve_batched_simd operates on a rank-2 (rows, "
                  "batch) right-hand-side block with element access");
    static_assert(std::is_same_v<typename BView::value_type, double>,
                  "schur_solve_batched_simd consumes an FP64 block: the "
                  "SchurDeviceData factors are FP64, and an FP32 block here "
                  "would narrow every product -- the FP32 path is the "
                  "mixed-precision driver (core/refinement.hpp), which "
                  "stages through SchurFloatFactors instead");
    static_assert(SimdLaneCount<W>,
                  "schur_solve_batched_simd pack width must be a positive "
                  "power of two");
    const std::size_t batch = b.extent(1);
    const std::size_t tile = detail::builder_tile_cols(
            policy, s.n, batch, static_cast<std::size_t>(W));
    if (use_spmv) {
        detail::solve_staged<W, true, Exec>(s, b, batch, tile);
    } else {
        detail::solve_staged<W, false, Exec>(s, b, batch, tile);
    }
}

/// Public face of the per-stage cost attribution for pipelines that embed
/// the fused Schur chain in a larger timed span (the fused advection
/// driver): decomposes one whole batched solve onto the pttrs/gemv/
/// spmv_coo/getrs counter children and merges the total onto `label`.
inline void attribute_schur_solve_cost(const SchurDeviceData& s,
                                       std::string_view label,
                                       std::size_t batch, bool use_spmv)
{
    detail::attribute_solve_cost(s, label, batch, use_spmv);
}

/// Solve A x = b in place for every column of `b` (shape (n, batch)) with
/// the requested kernel version. The SIMD versions run simd_chain_width
/// columns per pack whatever ISA this translation unit targets. The fused
/// versions run tile-resident under the given tile policy (PSPL_TILE by
/// default, "off" recovers the untiled dispatch bit-for-bit); Baseline is
/// the paper's multi-pass reference and is deliberately never tiled.
template <class Exec = DefaultExecutionSpace, class BView>
void schur_solve_batched(const SchurDeviceData& s, const BView& b,
                         BuilderVersion version,
                         const TilePolicy& policy = TilePolicy::from_env())
{
    static_assert(BatchBlockView<BView>,
                  "schur_solve_batched operates on a rank-2 (rows, batch) "
                  "right-hand-side block with element access");
    static_assert(std::is_same_v<typename BView::value_type, double>,
                  "schur_solve_batched consumes an FP64 block (the FP32 "
                  "path is the mixed-precision driver in "
                  "core/refinement.hpp)");
    const std::size_t batch = b.extent(1);
    if (version == BuilderVersion::Baseline) {
        detail::solve_baseline<Exec>(s, b, batch);
        return;
    }
    const FusedChain chain = fused_chain(version);
    if (chain.pack_width > 1) {
        schur_solve_batched_simd<simd_chain_width, Exec>(s, b, chain.use_spmv,
                                                         policy);
        return;
    }
    const std::size_t tile = detail::builder_tile_cols(policy, s.n, batch, 1);
    if (chain.use_spmv) {
        detail::solve_inplace<true, Exec>(s, b, batch, tile);
    } else {
        detail::solve_inplace<false, Exec>(s, b, batch, tile);
    }
}

} // namespace pspl::core
