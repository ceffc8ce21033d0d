// Ablation: batch tile width x SIMD pack width. The tile-resident solve
// (core/batched_solve.hpp + parallel/tiling.hpp) stages an (n, tile) block
// of RHS columns into a per-thread arena slot and runs the whole fused
// Schur chain on it while it is L2-resident; this harness sweeps the tile
// width against the pack width on the fused-spmv chain and verifies every
// tiled result is *bitwise identical* (0 ULP) to the untiled dispatch.
//
// The expected shape of the result: the untiled SIMD path loads one
// isolated pack (W * 8 B) per matrix row with a batch-sized stride between
// rows -- a latency-bound pattern -- while the tiled gather sweeps
// (tile * 8 B) contiguous runs that the hardware stream prefetcher can
// follow. Tiles larger than L2 give the locality back; tiles near the pack
// width degenerate to the untiled pattern.
//
// `auto` rows resolve the tile from the L2 cache model, so their effective
// width is machine-dependent; it is emitted under the metric-named field
// "effective_tile_count" (never record identity) to keep reduced-size CI
// diffs against the committed full-scale baseline structural-noise free.
//
// Defaults use batch = 20000; PSPL_BENCH_FULL=1 runs the paper's
// (n, batch) = (1000, 100000). `--json <path>` emits machine-readable
// records; other flags are forwarded to google-benchmark.
#include "bench/common.hpp"
#include "core/spline_builder.hpp"
#include "perf/hardware.hpp"
#include "perf/metrics.hpp"
#include "perf/report.hpp"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace {

using namespace pspl;
using core::BuilderVersion;
using core::SplineBuilder;

constexpr std::size_t kN = 1000;

std::size_t batch_size()
{
    return bench::env_size("PSPL_BENCH_BATCH",
                           bench::full_scale() ? 100000 : 20000);
}

/// ULP distance via the monotonic lexicographic mapping of IEEE doubles.
std::uint64_t ulp_distance(double a, double b)
{
    const auto lex = [](double d) {
        std::uint64_t u;
        std::memcpy(&u, &d, sizeof(u));
        return (u >> 63) ? ~u : (u | 0x8000000000000000ull);
    };
    const std::uint64_t x = lex(a);
    const std::uint64_t y = lex(b);
    return x > y ? x - y : y - x;
}

/// The swept tile requests: "off" is the untiled reference, the explicit
/// widths ablate the blocking, "auto" is the L2 cache model (which falls
/// back to untiled past the L3 streaming guard -- at the paper's full
/// batch the auto row should match "off", at cache-resident batches it
/// should match the best explicit width).
struct TileCase {
    const char* request;
    TilePolicy policy;
};

std::vector<TileCase> tile_cases()
{
    return {{"off", TilePolicy::off()},
            {"32", TilePolicy::explicit_width(32)},
            {"128", TilePolicy::explicit_width(128)},
            {"512", TilePolicy::explicit_width(512)},
            {"2048", TilePolicy::explicit_width(2048)},
            {"auto", TilePolicy::automatic()}};
}

template <int W>
void solve_tiled(const SplineBuilder& builder, const View2D<double>& b,
                 const TilePolicy& policy)
{
    core::schur_solve_batched_simd<W>(builder.solver().device_data(), b,
                                      /*use_spmv=*/true, policy);
}

template <int W>
void bm_tile(benchmark::State& state)
{
    const std::size_t batch = batch_size();
    const auto basis = bench::make_basis(3, true, kN);
    SplineBuilder builder(basis, BuilderVersion::FusedSpmvSimd);
    const std::size_t tile = static_cast<std::size_t>(state.range(0));
    const TilePolicy policy = tile == 0 ? TilePolicy::off()
                                        : TilePolicy::explicit_width(tile);
    View2D<double> b("b", basis.nbasis(), batch);
    bench::fill_rhs(basis, b);
    for (auto _ : state) {
        solve_tiled<W>(builder, b, policy);
        benchmark::DoNotOptimize(b.data());
    }
    state.SetBytesProcessed(
            static_cast<int64_t>(state.iterations())
            * static_cast<int64_t>(basis.nbasis() * batch * sizeof(double)));
}

void register_benchmarks()
{
    // range(0) is the explicit tile width; 0 means untiled.
    ::benchmark::RegisterBenchmark("build_tiled/W8", bm_tile<8>)
            ->Arg(0)
            ->Arg(128)
            ->Unit(benchmark::kMillisecond);
}

/// One pack-width row group: untiled reference first (it is both the timed
/// baseline and the bitwise-identity oracle), then every tile case.
template <int W>
void sweep_width(std::size_t batch, perf::Table& table,
                 bench::JsonReport& json, std::uint64_t& worst_ulp)
{
    const auto basis = bench::make_basis(3, true, kN);
    const std::size_t n = basis.nbasis();
    SplineBuilder builder(basis, BuilderVersion::FusedSpmvSimd);

    // Untiled reference coefficients: the 0-ULP oracle for every tile case.
    View2D<double> ref("ref", n, batch);
    bench::fill_rhs(basis, ref);
    solve_tiled<W>(builder, ref, TilePolicy::off());
    View2D<double> b("b", n, batch);

    double off_seconds = 0.0;
    for (const TileCase& tc : tile_cases()) {
        bench::fill_rhs(basis, b);
        solve_tiled<W>(builder, b, tc.policy); // warm-up
        const double t = bench::median_seconds(3, [&] {
            bench::fill_rhs(basis, b);
            solve_tiled<W>(builder, b, tc.policy);
        });
        const double fill =
                bench::median_seconds(3, [&] { bench::fill_rhs(basis, b); });
        const double solve = t - fill > 0 ? t - fill : t;
        // Bitwise-identity check on a fresh solve of the same values.
        bench::fill_rhs(basis, b);
        solve_tiled<W>(builder, b, tc.policy);
        std::uint64_t ulp = 0;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < batch; ++j) {
                const std::uint64_t d = ulp_distance(ref(i, j), b(i, j));
                ulp = d > ulp ? d : ulp;
            }
        }
        worst_ulp = ulp > worst_ulp ? ulp : worst_ulp;
        if (std::strcmp(tc.request, "off") == 0) {
            off_seconds = solve;
        }
        const double speedup = off_seconds / solve;
        const double gbs = perf::achieved_bandwidth_gbs(n, batch, solve);
        // The width the builder stages, 0 when the policy streams.
        const std::size_t eff = core::detail::builder_tile_cols(
                tc.policy, n, batch, static_cast<std::size_t>(W));
        table.add_row({"W=" + std::to_string(W), tc.request,
                       std::to_string(eff), perf::fmt_time(solve),
                       perf::fmt(speedup, 2) + "x",
                       perf::fmt(gbs, 2) + " GB/s", std::to_string(ulp)});
        json.add("ablation_tile",
                 {{"width", bench::JsonReport::num(W)},
                  {"tile_request", bench::JsonReport::str(tc.request)},
                  {"n", bench::JsonReport::num(n)},
                  {"batch", bench::JsonReport::num(batch)},
                  {"isa", bench::JsonReport::str(perf::compiled_isa_name())},
                  {"effective_tile_count",
                   bench::JsonReport::num(eff)},
                  {"seconds", bench::JsonReport::num(solve)},
                  {"speedup_vs_untiled", bench::JsonReport::num(speedup)},
                  {"bandwidth_gbs", bench::JsonReport::num(gbs)},
                  {"max_ulp_vs_untiled",
                   bench::JsonReport::num(static_cast<double>(ulp))}});
        if (ulp > 0) {
            std::printf("FAIL: W=%d tile=%s is not bitwise identical to the "
                        "untiled path (max %llu ULP)\n",
                        W, tc.request,
                        static_cast<unsigned long long>(ulp));
        }
    }
}

} // namespace

int main(int argc, char** argv)
{
    auto backend = pspl::bench::BackendChoice::from_args(argc, argv);
    (void)backend;
    auto json = pspl::bench::JsonReport::from_args(argc, argv);
    auto trace = pspl::bench::ChromeTrace::from_args(argc, argv);
    ::benchmark::Initialize(&argc, argv);
    std::printf("compiled ISA: %s\n", perf::compiled_isa_summary().c_str());
    register_benchmarks();
    ::benchmark::RunSpecifiedBenchmarks();

    // Profile the summary sweep so --json embeds the span report (with the
    // per-tile "tile_w=<cols>" bandwidth attribution) and --trace captures
    // a loadable timeline of the tile ladder.
    profiling::set_enabled(true);
    const std::size_t batch = batch_size();
    std::printf("\nTile-width ablation -- fused-spmv SIMD build at "
                "(n, batch) = (%zu, %zu), L2 = %zu KiB\n\n",
                kN, batch, l2_cache_bytes() / 1024);
    perf::Table table({"pack", "tile", "effective", "time",
                       "speedup vs untiled", "bandwidth (8B/pt)",
                       "max ULP vs untiled"});
    std::uint64_t worst_ulp = 0;
    sweep_width<2>(batch, table, json, worst_ulp);
    sweep_width<4>(batch, table, json, worst_ulp);
    sweep_width<8>(batch, table, json, worst_ulp);
    std::printf("%s\n", table.str().c_str());
    std::printf("worst-case ULP vs untiled across the sweep: %llu "
                "(target: 0, bitwise identical)\n",
                static_cast<unsigned long long>(worst_ulp));
    profiling::set_enabled(false);
    json.write();
    trace.write();
    return worst_ulp == 0 ? 0 : 1;
}
