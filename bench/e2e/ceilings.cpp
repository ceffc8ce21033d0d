#include "ceilings.hpp"

#include "parallel/execution.hpp"
#include "parallel/parallel.hpp"
#include "parallel/profiling.hpp"

#include <algorithm>
#include <memory>
#include <vector>

namespace pspl::bench::e2e {

namespace {

using Exec = DefaultExecutionSpace;

constexpr std::size_t stream_chunk = std::size_t{1} << 16; // elements
constexpr int stream_passes = 5;
constexpr int fma_chains = 32;

/// Runs f(begin, end) over [0, n) in stream_chunk pieces on the default
/// execution space (static split, like the library's kernels).
template <class F>
void for_chunks(const char* label, std::size_t n, const F& f)
{
    const std::size_t nchunks = (n + stream_chunk - 1) / stream_chunk;
    parallel_for(label, RangePolicy<Exec>(nchunks), [=](std::size_t c) {
        const std::size_t b = c * stream_chunk;
        f(b, std::min(b + stream_chunk, n));
    });
}

/// Best (shortest) time of `passes` calls.
template <class F>
double best_seconds(int passes, const F& f)
{
    double best = 1e300;
    for (int p = 0; p < passes; ++p) {
        profiling::Timer t;
        f();
        best = std::min(best, t.seconds());
    }
    return best;
}

/// One multiply-add sweep of `iters` steps over fma_chains independent
/// accumulators per thread; the inner loop vectorizes at the compiled ISA.
double fma_sweep(long iters, double* sink)
{
    const int threads = Exec::concurrency();
    parallel_for("e2e::fma", RangePolicy<Exec>(static_cast<std::size_t>(threads)),
                 [=](std::size_t t) {
                     double acc[fma_chains];
                     for (int k = 0; k < fma_chains; ++k) {
                         acc[k] = 1.0 + 1e-3 * k + sink[t];
                     }
                     const double m = 0.999999 + 1e-12 * sink[t];
                     const double c = 1e-6;
                     for (long i = 0; i < iters; ++i) {
                         for (int k = 0; k < fma_chains; ++k) {
                             acc[k] = acc[k] * m + c;
                         }
                     }
                     double s = 0.0;
                     for (int k = 0; k < fma_chains; ++k) {
                         s += acc[k];
                     }
                     sink[t] = s * 1e-30;
                 });
    return 2.0 * fma_chains * static_cast<double>(iters) * threads;
}

} // namespace

Ceilings measure_ceilings(std::size_t llc_bytes)
{
    Ceilings out;
    out.llc_bytes = llc_bytes;
    const std::size_t n = 4 * llc_bytes / sizeof(double) + stream_chunk;
    out.array_bytes = n * sizeof(double);
    {
        std::unique_ptr<double[]> abuf(new double[n]);
        std::unique_ptr<double[]> bbuf(new double[n]);
        double* const a = abuf.get();
        double* const b = bbuf.get();
        // First touch from the threads that stream the arrays later.
        for_chunks("e2e::stream_init", n, [=](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
                a[i] = 1.0;
                b[i] = 2.0;
            }
        });
        const double copy_s = best_seconds(stream_passes, [&] {
            for_chunks("e2e::stream_copy", n,
                       [=](std::size_t i0, std::size_t i1) {
                           for (std::size_t i = i0; i < i1; ++i) {
                               b[i] = a[i];
                           }
                       });
        });
        const double s = 1e-3;
        const double triad_s = best_seconds(stream_passes, [&] {
            for_chunks("e2e::stream_triad", n,
                       [=](std::size_t i0, std::size_t i1) {
                           for (std::size_t i = i0; i < i1; ++i) {
                               a[i] = b[i] + s * a[i];
                           }
                       });
        });
        const double elems = static_cast<double>(n);
        out.copy_gbs = 16.0 * elems * 1e-9 / copy_s;
        out.triad_gbs = 24.0 * elems * 1e-9 / triad_s;
    }

    // Calibrate the sweep length to ~0.2 s, then keep the best of three.
    std::vector<double> sink(static_cast<std::size_t>(Exec::concurrency()),
                             0.0);
    long iters = 1 << 16;
    while (true) {
        profiling::Timer t;
        fma_sweep(iters, sink.data());
        if (t.seconds() > 0.05) {
            break;
        }
        iters *= 2;
    }
    iters *= 4;
    double flops = 0.0;
    const double fma_s = best_seconds(3, [&] {
        flops = fma_sweep(iters, sink.data());
    });
    out.fma_gflops = flops * 1e-9 / fma_s;
    return out;
}

} // namespace pspl::bench::e2e
