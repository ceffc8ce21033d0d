// Load/store glue between rank-2 (n, batch) View blocks and simd packs.
//
// A pack covers W *adjacent batch entries* of one row: lanes map to the
// batch index, never the matrix index (the batch entries are independent,
// the matrix rows are coupled by the recurrences). The fast path is a
// single unaligned vector move when the batch index is contiguous
// (LayoutRight, the paper's GPU-coalesced layout); any other layout
// (LayoutLeft, sliced LayoutStride) degrades gracefully to a strided
// gather/scatter with identical semantics. Tails (batch % W != 0) use the
// zero-filling masked loads from simd.hpp.
#pragma once

#include "core/concepts.hpp"
#include "parallel/macros.hpp"
#include "parallel/simd.hpp"

#include <cstddef>

namespace pspl {

/// Pack of W lanes from row `i`, batch columns [j0, j0 + lanes) of `v`.
template <int W, BatchBlockView V>
PSPL_FORCEINLINE_FUNCTION auto simd_load_lanes(const V& v, std::size_t i,
                                               std::size_t j0, int lanes)
{
    using T = std::remove_cv_t<typename V::value_type>;
    static_assert(SimdPackable<T>,
                  "simd_load_lanes: block element type must be an arithmetic "
                  "(SimdPackable) type");
    PSPL_DEBUG_ASSERT(lanes >= 1 && lanes <= W
                              && j0 + static_cast<std::size_t>(lanes)
                                         <= v.extent(1),
                      "simd_load_lanes: lane window outside batch extent");
    const T* p = &v(i, j0);
    const auto stride = static_cast<std::ptrdiff_t>(v.stride(1));
    if (lanes == W) {
        return stride == 1 ? simd<T, W>::load(p) : simd<T, W>::load(p, stride);
    }
    return simd<T, W>::load_partial(p, stride, lanes);
}

/// Store the first `lanes` lanes of `x` to row `i`, columns [j0, j0 + lanes).
template <int W, BatchBlockView V>
PSPL_FORCEINLINE_FUNCTION void
simd_store_lanes(const simd<std::remove_cv_t<typename V::value_type>, W>& x,
                 const V& v, std::size_t i, std::size_t j0, int lanes)
{
    using T = std::remove_cv_t<typename V::value_type>;
    PSPL_DEBUG_ASSERT(lanes >= 1 && lanes <= W
                              && j0 + static_cast<std::size_t>(lanes)
                                         <= v.extent(1),
                      "simd_store_lanes: lane window outside batch extent");
    T* p = &v(i, j0);
    const auto stride = static_cast<std::ptrdiff_t>(v.stride(1));
    if (lanes == W) {
        if (stride == 1) {
            x.store(p);
        } else {
            x.store(p, stride);
        }
        return;
    }
    x.store_partial(p, stride, lanes);
}

} // namespace pspl
