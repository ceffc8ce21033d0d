// Batch tiling: partition the batch index into L2-sized column tiles so
// every pipeline stage of a batched solve runs over one cache-resident tile
// before the next tile is touched.
//
// One rule sizes the tile of every staged pipeline,
// TilePolicy::tile_cols(col_bytes, batch_cols, pack_width, fixed_bytes):
// the staged slot costs `col_bytes` per batch column, and the tile fills
// half of L2 less half of the resident data every column re-reads
// (`fixed_bytes`, capped at a quarter of L2 so it cannot zero the budget).
// The width is rounded to a multiple of the SIMD pack width (down for the
// model, up for an explicit request), so tile boundaries coincide with
// pack boundaries -- that is what makes the tiled path bitwise identical
// to the untiled one -- and clamped to at least one pack and at most the
// batch rounded up to whole packs and 4096 rounded down. The callers:
//
//   caller                                  col_bytes        fixed_bytes
//   FP64 builder (solve_inplace/_staged)    n * 8            0
//   Precision::Single, Mixed when explicit  n * staging      0
//   AdvectionPlan                           (n + npts) * 8   factors + points
//
// Streaming guard: staging pays when the working set is cache-resident
// (it converts the untiled path's strided pack loads into contiguous
// sweeps), but once the whole block exceeds the last-level cache every
// pass streams from DRAM anyway -- the fused chain is already single-pass
// per pack, so the gather/scatter would only add copy traffic.
// TilePolicy::streams() is that predicate; only the FP64 builder asks it,
// and runs one pack per tile when it holds. The other pipelines must
// stage, so Off still gets them the L2 width.
//
// PSPL_TILE overrides the model at runtime:
//   unset / "auto"  -> cache model (default)
//   "off" / "0"     -> the FP64 builder runs untiled (the 0-ULP reference)
//   <unsigned int>  -> explicit tile width in batch columns
//   anything else   -> auto
#pragma once

#include "parallel/parallel.hpp"

#include <cstddef>
#include <string>
#include <string_view>

namespace pspl {

/// Detected L2 data-cache capacity of cpu0 (sysfs), cached after the first
/// call; falls back to 1 MiB when the hierarchy cannot be read.
std::size_t l2_cache_bytes();

/// Detected last-level (L3) cache capacity of cpu0 (sysfs), cached after
/// the first call; falls back to 32 MiB when the hierarchy cannot be read.
/// The auto tile model's streaming guard keys on this.
std::size_t l3_cache_bytes();

struct TilePolicy {
    enum class Mode {
        Auto,     ///< size tiles from the L2 cache model
        Off,      ///< FP64 builder untiled; staged pipelines as Auto
        Explicit, ///< honor `tile` (rounded to a pack multiple)
    };

    Mode mode = Mode::Auto;
    std::size_t tile = 0; ///< requested width (Explicit mode only)

    /// Parse PSPL_TILE (read live on every call so tests can setenv).
    static TilePolicy from_env();
    static TilePolicy off() { return {Mode::Off, 0}; }
    static TilePolicy automatic() { return {Mode::Auto, 0}; }
    static TilePolicy explicit_width(std::size_t w)
    {
        return {Mode::Explicit, w};
    }

    /// The one tile-width rule (see the file comment): batch columns per
    /// tile for `col_bytes` of slot per column, `pack_width` columns at a
    /// time, next to `fixed_bytes` of data every column re-reads.
    std::size_t tile_cols(std::size_t col_bytes, std::size_t batch_cols,
                          std::size_t pack_width,
                          std::size_t fixed_bytes) const;

    /// The FP64 builder's streaming guard: true in Off mode, and in Auto
    /// mode when the whole block exceeds the last-level cache.
    bool streams(std::size_t col_bytes, std::size_t batch_cols) const;

    /// Human/JSON form: "auto", "off", or the explicit width.
    std::string describe() const;
};

/// One tile of the batch range: columns [begin, end), tile number `index`.
struct BatchTile {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t index = 0;

    std::size_t cols() const { return end - begin; }
};

/// Tile scheduler: carve [policy.begin, policy.end) into tiles of `tile`
/// columns (the last tile may be narrower) and dispatch one functor call
/// per tile through the ordinary labeled parallel_for machinery, so tiles
/// inherit profiling spans and PSPL_CHECK region guards unchanged.
template <class Exec, class F>
void for_each_batch_tile(std::string_view label, RangePolicy<Exec> policy,
                         std::size_t tile, const F& f)
{
    static_assert(BatchTileBody<F>,
                  "for_each_batch_tile body must be invocable as "
                  "f(const BatchTile&) on a const functor -- the scheduler "
                  "hands the body one [begin, end) column tile, not a bare "
                  "index");
    PSPL_EXPECT(tile >= 1, "for_each_batch_tile: tile width must be >= 1");
    const std::size_t begin = policy.begin;
    const std::size_t end = policy.end;
    const std::size_t total = end > begin ? end - begin : 0;
    const std::size_t ntiles = (total + tile - 1) / tile;
    parallel_for(label, RangePolicy<Exec>(ntiles), [=](std::size_t t) {
        const std::size_t t0 = begin + t * tile;
        const std::size_t t1 = t0 + tile < end ? t0 + tile : end;
        PSPL_DEBUG_ASSERT(t0 < t1 && t1 <= end,
                          "for_each_batch_tile: tile outside batch range");
        f(BatchTile{t0, t1, t});
    });
}

/// Shorthand: tile [0, batch) on the default execution space.
template <class F>
void for_each_batch_tile(std::string_view label, std::size_t batch,
                         std::size_t tile, const F& f)
{
    for_each_batch_tile(label, RangePolicy<DefaultExecutionSpace>(batch),
                        tile, f);
}

} // namespace pspl
