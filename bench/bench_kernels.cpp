// Per-kernel microbenchmarks of the batched-serial solvers -- the
// counterpart of the paper's §IV per-kernel profiling with Nsight
// systems/compute (pttrs 2.941 ms, two gemms 3.795/4.423 ms, getrs 6.5 us
// at (1000, 100000) on A100). One benchmark per solver kernel, all at the
// same (n, batch) working set, so relative kernel costs can be compared
// directly with the paper's Gantt-chart numbers. bm_evaluate_shifted times
// the other half of the advection step, evaluation at the feet.
#include "batched/batched.hpp"
#include "bench/common.hpp"
#include "core/spline_evaluator.hpp"
#include "hostlapack/gbtrf.hpp"
#include "hostlapack/getrf.hpp"
#include "hostlapack/gttrf.hpp"
#include "hostlapack/pbtrf.hpp"
#include "hostlapack/pttrf.hpp"
#include "parallel/parallel.hpp"
#include "parallel/subview.hpp"
#include "sparse/coo.hpp"

#include <benchmark/benchmark.h>

#include <vector>

namespace {

using namespace pspl;

std::size_t bench_n()
{
    return bench::env_size("PSPL_BENCH_N", 1000);
}

std::size_t bench_batch()
{
    return bench::env_size("PSPL_BENCH_BATCH",
                           bench::full_scale() ? 100000 : 8192);
}

View2D<double> rhs_block(std::size_t n, std::size_t batch)
{
    View2D<double> b("b", n, batch);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < batch; ++j) {
            b(i, j) = bench::hash_noise(i, j);
        }
    }
    return b;
}

void bm_pttrs(benchmark::State& state)
{
    const std::size_t n = bench_n();
    const std::size_t batch = bench_batch();
    View1D<double> d("d", n);
    View1D<double> e("e", n - 1);
    for (std::size_t i = 0; i < n; ++i) {
        d(i) = 2.0 / 3.0;
        if (i + 1 < n) {
            e(i) = 1.0 / 6.0;
        }
    }
    hostlapack::pttrf(d, e);
    auto b = rhs_block(n, batch);
    for (auto _ : state) {
        parallel_for("pttrs", batch, [=](std::size_t i) {
            auto col = subview(b, ALL, i);
            batched::SerialPttrs<>::invoke(d, e, col);
        });
        benchmark::DoNotOptimize(b.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations())
                            * static_cast<int64_t>(n * batch));
}

void bm_gttrs(benchmark::State& state)
{
    const std::size_t n = bench_n();
    const std::size_t batch = bench_batch();
    View1D<double> dl("dl", n - 1);
    View1D<double> d("d", n);
    View1D<double> du("du", n - 1);
    View1D<double> du2("du2", n - 2);
    View1D<int> ipiv("ipiv", n);
    for (std::size_t i = 0; i < n; ++i) {
        d(i) = 0.6;
        if (i + 1 < n) {
            dl(i) = 0.2;
            du(i) = 0.15;
        }
    }
    hostlapack::gttrf(dl, d, du, du2, ipiv);
    auto b = rhs_block(n, batch);
    for (auto _ : state) {
        parallel_for("gttrs", batch, [=](std::size_t i) {
            auto col = subview(b, ALL, i);
            batched::SerialGttrs<>::invoke(dl, d, du, du2, ipiv, col);
        });
        benchmark::DoNotOptimize(b.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations())
                            * static_cast<int64_t>(n * batch));
}

void bm_pbtrs(benchmark::State& state)
{
    const std::size_t n = bench_n();
    const std::size_t kd = static_cast<std::size_t>(state.range(0));
    const std::size_t batch = bench_batch();
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j <= std::min(n - 1, i + kd); ++j) {
            a(i, j) = 0.1;
            a(j, i) = 0.1;
        }
        a(i, i) = 1.0;
    }
    auto sym = hostlapack::pack_sym_band(a, kd);
    hostlapack::pbtrf(sym);
    const auto ab = sym.ab;
    auto b = rhs_block(n, batch);
    for (auto _ : state) {
        parallel_for("pbtrs", batch, [=](std::size_t i) {
            auto col = subview(b, ALL, i);
            batched::SerialPbtrs<>::invoke(ab, col);
        });
        benchmark::DoNotOptimize(b.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations())
                            * static_cast<int64_t>(n * batch));
}

void bm_gbtrs(benchmark::State& state)
{
    const std::size_t n = bench_n();
    const auto klu = static_cast<std::size_t>(state.range(0));
    const std::size_t batch = bench_batch();
    View2D<double> a("a", n, n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t jlo = i > klu ? i - klu : 0;
        const std::size_t jhi = std::min(n - 1, i + klu);
        for (std::size_t j = jlo; j <= jhi; ++j) {
            a(i, j) = 0.1;
        }
        a(i, i) = 1.0;
    }
    auto band = hostlapack::pack_band(a, klu, klu);
    View1D<int> ipiv("ipiv", n);
    hostlapack::gbtrf(band, ipiv);
    const auto ab = band.ab;
    auto b = rhs_block(n, batch);
    for (auto _ : state) {
        parallel_for("gbtrs", batch, [=](std::size_t i) {
            auto col = subview(b, ALL, i);
            batched::SerialGbtrs<>::invoke(ab, static_cast<int>(klu),
                                           static_cast<int>(klu), ipiv, col);
        });
        benchmark::DoNotOptimize(b.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations())
                            * static_cast<int64_t>(n * batch));
}

void bm_getrs_small(benchmark::State& state)
{
    // The Schur-complement solve: a tiny k x k dense system per RHS. The
    // paper reports this kernel as negligible (6.5 us); verify it stays so.
    const auto k = static_cast<std::size_t>(state.range(0));
    const std::size_t batch = bench_batch();
    View2D<double> a("a", k, k);
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
            a(i, j) = (i == j) ? 2.0 : 0.3;
        }
    }
    View1D<int> ipiv("ipiv", k);
    hostlapack::getrf(a, ipiv);
    auto b = rhs_block(k, batch);
    for (auto _ : state) {
        parallel_for("getrs", batch, [=](std::size_t i) {
            auto col = subview(b, ALL, i);
            batched::SerialGetrs<>::invoke(a, ipiv, col);
        });
        benchmark::DoNotOptimize(b.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations())
                            * static_cast<int64_t>(k * batch));
}

void bm_spmv_coo(benchmark::State& state)
{
    // Corner-block SpMV: ~50 nonzeros against a (n) vector, like the
    // sparsified beta block.
    const std::size_t n = bench_n();
    const std::size_t nnz = 50;
    const std::size_t batch = bench_batch();
    View2D<double> dense("dense", n, 1);
    for (std::size_t i = 0; i < nnz; ++i) {
        dense(i * (n / nnz), 0) = 0.01;
    }
    const auto coo = sparse::Coo::from_dense(dense, 0.0);
    auto x = rhs_block(1, batch);
    auto y = rhs_block(n, batch);
    for (auto _ : state) {
        parallel_for("spmv", batch, [=](std::size_t i) {
            auto xc = subview(x, ALL, i);
            auto yc = subview(y, ALL, i);
            batched::SerialSpmvCoo::invoke(-1.0, coo, xc, yc);
        });
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations())
                            * static_cast<int64_t>(nnz * batch));
}

void bm_evaluate_shifted(benchmark::State& state)
{
    // Evaluation at the feet (Algorithm 2, lines 6-10), serially on the
    // calling thread: every column of a 64-column row-major coefficient
    // strip, read through core::StripColumn the way AdvectionPlan reads its
    // staged tile, at the Greville points shifted by v*dt for v in [-1, 1),
    // dt = 1e-3 (the advection workloads' shifts).
    const int degree = static_cast<int>(state.range(0));
    const bool uniform = state.range(1) != 0;
    const std::size_t n = 1000;
    const std::size_t cols = 64;
    const auto basis = bench::make_basis(degree, uniform, n);
    const core::SplineEvaluator evaluator(basis);
    const auto pts = basis.interpolation_points();
    View1D<double> points("points", n);
    for (std::size_t i = 0; i < n; ++i) {
        points(i) = pts[i];
    }
    std::vector<double> strip(n * cols);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < cols; ++c) {
            strip[i * cols + c] = bench::hash_noise(i, c);
        }
    }
    std::vector<double> out(cols * n);
    for (auto _ : state) {
        for (std::size_t c = 0; c < cols; ++c) {
            const core::StripColumn coeffs{strip.data() + c, n, cols};
            const double v = -1.0
                             + 2.0 * static_cast<double>(c)
                                       / static_cast<double>(cols);
            evaluator.evaluate_shifted(points, v * 1e-3, coeffs,
                                       out.data() + c * n);
        }
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    // Inverted rate: seconds per point (printed with an SI prefix, "ns").
    state.counters["time_per_point"] = benchmark::Counter(
            static_cast<double>(cols * n),
            benchmark::Counter::kIsIterationInvariantRate
                    | benchmark::Counter::kInvert);
}

} // namespace

BENCHMARK(bm_pttrs)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_gttrs)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_pbtrs)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_gbtrs)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_getrs_small)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_spmv_coo)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_evaluate_shifted)
        ->ArgNames({"degree", "uniform"})
        ->Args({3, 1})
        ->Args({5, 0})
        ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
