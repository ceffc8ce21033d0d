// Machine ceilings measured in the benchmark process itself, on the same
// thread count and with the same compiled ISA as the library: STREAM-style
// copy and triad bandwidth over arrays far larger than the last-level cache,
// and FP64 multiply-add throughput. Every *_frac metric of the end-to-end
// benchmark divides by these instead of the assumed host_spec() peaks.
#pragma once

#include <cstddef>

namespace pspl::bench::e2e {

struct Ceilings {
    double copy_gbs = 0.0;      ///< b[i] = a[i], 16 B per element
    double triad_gbs = 0.0;     ///< a[i] = b[i] + s * a[i], 24 B per element
    double fma_gflops = 0.0;    ///< a * m + c chains, 2 flops each
    std::size_t array_bytes = 0; ///< size of each STREAM array
    std::size_t llc_bytes = 0;   ///< last-level cache the arrays must exceed
};

/// Arrays of at least 4x `llc_bytes` each; best of several passes.
Ceilings measure_ceilings(std::size_t llc_bytes);

} // namespace pspl::bench::e2e
