// Ablation: fused build->evaluate advection (the tentpole of the
// tile-resident coefficient streaming pipeline). The unfused Algorithm 2
// step moves f through two strided transposes, a batched solve and a
// coefficient re-read per step; the fused AdvectionPlan stages each batch
// tile's RHS strip in the workspace arena, solves it L2-resident and
// evaluates at the displaced feet straight from the strip -- the full-size
// coefficient array never exists.
//
// The fused side is BatchedAdvection1D, which runs the plan for every
// fusable configuration; the unfused side is Algorithm 2 assembled here
// from the library's building blocks, with the span labels and modelled
// bytes the library's Algorithm 2 path records.
//
// Three gates make this harness CI-meaningful rather than a demo:
//   * 0-ULP oracle (hard): at Precision::Double the fused step must be
//     bitwise identical to the unfused step on every backend.
//   * modeled-bytes (hard): summed span cost models of one fused step must
//     be strictly below the unfused step -- the fusion's whole point is
//     DRAM traffic, and the span cost models make it checkable.
//   * speedup floor (hard, PSPL_BENCH_MIN_SPEEDUP, default 0.75): the
//     fused path must never be a serious regression; below the 1.2x
//     target it warns. The committed full-scale baseline carries the
//     measured speedup, which compare_bench.py then gates within
//     tolerance.
//
// Defaults use batch = 20000; PSPL_BENCH_FULL=1 runs the paper's
// (n, batch) = (1000, 100000). `--json <path>` emits machine-readable
// records; --min-time/--repeats control the timing harness; other flags
// are forwarded to google-benchmark.
#include "advection/advection_plan.hpp"
#include "advection/semi_lagrangian.hpp"
#include "advection/transpose.hpp"
#include "bench/common.hpp"
#include "core/spline_builder.hpp"
#include "core/spline_evaluator.hpp"
#include "parallel/profiling.hpp"
#include "perf/hardware.hpp"
#include "perf/metrics.hpp"
#include "perf/report.hpp"

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

using namespace pspl;
using advection::BatchedAdvection1D;

constexpr std::size_t kNx = 1000;
constexpr auto kVersion = core::BuilderVersion::FusedSpmvSimd;
constexpr double kDt = 1e-3;

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

bsplines::BSplineBasis make_basis()
{
    return bench::make_basis(3, true, kNx);
}

View1D<double> make_velocities(std::size_t nv)
{
    return advection::uniform_velocities(nv, -1.0, 1.0);
}

BatchedAdvection1D make_fused(std::size_t nv)
{
    BatchedAdvection1D::Config cfg;
    cfg.version = kVersion;
    return BatchedAdvection1D(make_basis(), make_velocities(nv), kDt, cfg);
}

/// The unfused Algorithm 2 step: transpose f so the batch index is
/// contiguous, build the coefficients in place, transpose them back, and
/// evaluate every row at the feet. Same builder version, evaluator entry
/// point, span labels and modelled bytes as the library's Algorithm 2
/// path, with the same persistent first-touched scratch blocks.
class Algorithm2Step
{
public:
    explicit Algorithm2Step(std::size_t nv)
        : m_basis(make_basis())
        , m_builder(m_basis, kVersion)
        , m_evaluator(m_basis)
        , m_points("advection_points", kNx)
        , m_velocities(make_velocities(nv))
        , m_ft(FirstTouch, "advection_ft", kNx, nv)
        , m_eta(FirstTouch, "advection_eta", nv, kNx)
    {
        const auto pts = m_basis.interpolation_points();
        for (std::size_t i = 0; i < kNx; ++i) {
            m_points(i) = pts[i];
        }
    }

    std::size_t nv() const { return m_velocities.extent(0); }
    std::size_t nx() const { return kNx; }
    const View1D<double>& points() const { return m_points; }

    template <class Exec = DefaultExecutionSpace>
    void step(const View2D<double>& f) const
    {
        profiling::ScopedRegion region("pspl_advection_step");
        advection::transpose<Exec>("pspl::advection::transpose_fwd", f, m_ft);
        m_builder.build_inplace<Exec>(m_ft);
        advection::transpose<Exec>("pspl::advection::transpose_bwd", m_ft,
                                   m_eta);
        const auto eta = m_eta;
        const auto points = m_points;
        const auto velocities = m_velocities;
        const auto evaluator = m_evaluator;
        parallel_for("pspl::advection::interpolate", RangePolicy<Exec>(nv()),
                     [=](std::size_t j) {
                         evaluator.evaluate_shifted(points,
                                                    velocities(j) * kDt,
                                                    subview(eta, j, ALL),
                                                    &f(j, 0));
                     });
        if (profiling::enabled()) {
            // The coefficient array streams back in from DRAM and the
            // advected values stream out.
            const double rows = static_cast<double>(nv());
            const double cols = static_cast<double>(kNx);
            profiling::add_counters(
                    "pspl::advection::interpolate",
                    rows * 2.0 * cols * static_cast<double>(sizeof(double)),
                    rows * cols
                            * advection::eval_point_flops(m_basis.degree()));
        }
    }

private:
    bsplines::BSplineBasis m_basis;
    core::SplineBuilder m_builder;
    core::SplineEvaluator m_evaluator;
    View1D<double> m_points;
    View1D<double> m_velocities;
    View2D<double> m_ft;  ///< (Nx, Nv) transposed values / coefficients
    View2D<double> m_eta; ///< (Nv, Nx) coefficients, x contiguous
};

template <class Stepper>
View2D<double> make_f(const Stepper& adv)
{
    View2D<double> f("f", adv.nv(), adv.nx());
    for (std::size_t j = 0; j < adv.nv(); ++j) {
        for (std::size_t i = 0; i < adv.nx(); ++i) {
            f(j, i) = 1.0 + 0.1 * std::sin(6.28 * adv.points()(i))
                      + 0.01 * bench::hash_noise(j, i);
        }
    }
    return f;
}

/// Modeled DRAM bytes of exactly one step: the sum of every *timed*
/// "pspl::" span's cost model. Attribution-only counter children (count 0;
/// schema-v5 counter_only) are excluded -- their bytes are already merged
/// into the timed parent by attribute_solve_cost, and double-counting them
/// would flatter neither path honestly.
template <class Exec, class Stepper>
double modeled_step_bytes(const Stepper& adv, const View2D<double>& f)
{
    profiling::clear();
    profiling::set_enabled(true);
    adv.template step<Exec>(f);
    profiling::set_enabled(false);
    double bytes = 0.0;
    for (const auto& [label, stats] : profiling::snapshot()) {
        if (stats.count > 0 && label.rfind("pspl::", 0) == 0) {
            bytes += stats.bytes;
        }
    }
    return bytes;
}

template <class Stepper>
void run_steps(benchmark::State& state, const Stepper& adv)
{
    auto f = make_f(adv);
    for (auto _ : state) {
        adv.step(f);
        benchmark::DoNotOptimize(f.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations())
                            * static_cast<int64_t>(kNx * adv.nv()));
}

void bm_step(benchmark::State& state)
{
    const auto nv = static_cast<std::size_t>(state.range(0));
    if (state.range(1) != 0) {
        run_steps(state, make_fused(nv));
    } else {
        run_steps(state, Algorithm2Step(nv));
    }
}

struct Gates {
    std::uint64_t worst_ulp = 0;
    bool bytes_regressed = false;
    double min_speedup = 1e300;
};

template <class Exec>
void sweep_backend(std::size_t nv, const bench::TimingControl& timing,
                   perf::Table& table, bench::JsonReport& json, Gates& gates)
{
    const char* space = Exec::name();
    const Algorithm2Step unfused(nv);
    const auto fused = make_fused(nv);
    if (!fused.fused_active()) {
        std::printf("%s: fused pipeline unavailable (reduced precision?) -- "
                    "skipping\n",
                    space);
        return;
    }

    auto fu = make_f(unfused);
    auto ff = make_f(fused);
    const double t_unfused =
            bench::stable_seconds(timing,
                                  [&] { unfused.template step<Exec>(fu); })
                    .seconds;
    const double t_fused =
            bench::stable_seconds(timing,
                                  [&] { fused.template step<Exec>(ff); })
                    .seconds;
    const double speedup = t_fused > 0.0 ? t_unfused / t_fused : 0.0;
    gates.min_speedup =
            speedup < gates.min_speedup ? speedup : gates.min_speedup;

    // Span-cost-model traffic of one step each.
    const double bytes_unfused = modeled_step_bytes<Exec>(unfused, fu);
    const double bytes_fused = modeled_step_bytes<Exec>(fused, ff);
    if (!(bytes_fused < bytes_unfused)) {
        gates.bytes_regressed = true;
    }

    // 0-ULP oracle: one step from identical initial values.
    auto ou = make_f(unfused);
    auto of = make_f(fused);
    unfused.template step<Exec>(ou);
    fused.template step<Exec>(of);
    std::uint64_t ulp = 0;
    for (std::size_t j = 0; j < nv; ++j) {
        for (std::size_t i = 0; i < kNx; ++i) {
            const std::uint64_t d = ulp_distance(ou(j, i), of(j, i));
            ulp = d > ulp ? d : ulp;
        }
    }
    gates.worst_ulp = ulp > gates.worst_ulp ? ulp : gates.worst_ulp;
    if (ulp > 0) {
        std::printf("FAIL: %s fused step is not bitwise identical to the "
                    "unfused step (max %llu ULP)\n",
                    space, static_cast<unsigned long long>(ulp));
    }

    for (const bool is_fused : {false, true}) {
        const double t = is_fused ? t_fused : t_unfused;
        const double bytes = is_fused ? bytes_fused : bytes_unfused;
        table.add_row(
                {space, is_fused ? "fused" : "unfused", perf::fmt_time(t),
                 perf::fmt(perf::glups(kNx, nv, t), 4),
                 perf::fmt(bytes * 1e-6, 1) + " MB",
                 is_fused ? perf::fmt(speedup, 2) + "x" : std::string("-"),
                 is_fused ? std::to_string(ulp) : std::string("-")});
        json.add("ablation_fused_advection",
                 {{"space", bench::JsonReport::str(space)},
                  {"path", bench::JsonReport::str(is_fused ? "fused"
                                                           : "unfused")},
                  {"n", bench::JsonReport::num(kNx)},
                  {"batch", bench::JsonReport::num(nv)},
                  {"isa", bench::JsonReport::str(perf::compiled_isa_name())},
                  {"seconds", bench::JsonReport::num(t)},
                  {"model_bytes_per_step", bench::JsonReport::num(bytes)},
                  {"speedup_vs_unfused",
                   bench::JsonReport::num(is_fused ? speedup : 1.0)},
                  {"max_ulp_vs_unfused",
                   bench::JsonReport::num(is_fused
                                                  ? static_cast<double>(ulp)
                                                  : 0.0)}});
    }
}

} // namespace

BENCHMARK(bm_step)
        ->ArgNames({"Nv", "fused"})
        ->Args({1000, 0})
        ->Args({1000, 1})
        ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv)
{
    const auto backend = pspl::bench::BackendChoice::from_args(argc, argv);
    (void)backend;
    const auto timing = pspl::bench::TimingControl::from_args(argc, argv);
    auto json = pspl::bench::JsonReport::from_args(argc, argv);
    auto trace = pspl::bench::ChromeTrace::from_args(argc, argv);
    ::benchmark::Initialize(&argc, argv);
    std::printf("compiled ISA: %s\n", perf::compiled_isa_summary().c_str());
    ::benchmark::RunSpecifiedBenchmarks();

    const std::size_t nv = batch_size();
    std::printf("\nFused build->evaluate advection ablation -- (Nx, Nv) = "
                "(%zu, %zu), degree 3 uniform, fused-spmv SIMD ladder\n\n",
                kNx, nv);
    perf::Table table({"backend", "path", "time/step", "GLUPS",
                       "model bytes/step", "speedup vs unfused",
                       "max ULP vs unfused"});
    Gates gates;
    sweep_backend<pspl::Serial>(nv, timing, table, json, gates);
#if defined(PSPL_ENABLE_OPENMP)
    sweep_backend<pspl::OpenMP>(nv, timing, table, json, gates);
#endif
    sweep_backend<pspl::Threads>(nv, timing, table, json, gates);
    std::printf("%s\n", table.str().c_str());

    json.write();
    trace.write();

    if (gates.min_speedup > 1e299) {
        // Every backend skipped (reduced-precision run): nothing to gate.
        std::printf("fused pipeline inactive; gates skipped\n");
        return 0;
    }
    int rc = 0;
    if (gates.worst_ulp != 0) {
        std::printf("GATE FAIL: fused vs unfused worst ULP %llu (target 0)\n",
                    static_cast<unsigned long long>(gates.worst_ulp));
        rc = 1;
    }
    if (gates.bytes_regressed) {
        std::printf("GATE FAIL: fused step does not move strictly fewer "
                    "modeled DRAM bytes than unfused\n");
        rc = 1;
    }
    const char* floor_env = std::getenv("PSPL_BENCH_MIN_SPEEDUP");
    const double floor = floor_env != nullptr && *floor_env != '\0'
                                 ? std::atof(floor_env)
                                 : 0.75;
    if (gates.min_speedup < floor) {
        std::printf("GATE FAIL: fused speedup %.2fx below hard floor %.2fx\n",
                    gates.min_speedup, floor);
        rc = 1;
    } else if (gates.min_speedup < 1.2) {
        std::printf("WARNING: fused speedup %.2fx below the 1.2x target "
                    "(full-scale baseline gates via compare_bench.py)\n",
                    gates.min_speedup);
    }
    std::printf("worst ULP %llu, min speedup %.2fx across backends\n",
                static_cast<unsigned long long>(gates.worst_ulp),
                gates.min_speedup);
    return rc;
}
