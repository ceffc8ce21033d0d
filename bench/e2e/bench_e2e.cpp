// End-to-end benchmark of the spline solver: one workload per process, run
// as a closed loop with one client (each step starts when the previous one
// has returned) on the library's default execution space and thread count.
//
//   bench_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--self-test] [--out DIR] [--commit SHA]
//
// --trace 0 is the timed run: profiling off, it reports the end-to-end
// metrics (step time median and p90, GLUPS, set-up time, peak RSS).
// --trace 1 is the traced run: it times each layer's public entry points on
// the same shapes and data inside bench-side profiling spans, reports the
// per-layer metrics against ceilings measured in the same process, and
// writes a chrome trace. Only library defaults are used: no Config field,
// BuilderVersion or PSPL_* knob is touched.
//
// Every step is checked: advection rows and built columns against a dense
// LU solve of the collocation matrix (hostlapack), Vlasov-Poisson against
// mass conservation and the Landau damping rate. The last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}; any failed
// check makes the exit code non-zero. --self-test corrupts one checked value
// to prove that the checks can fail.
#include "advection/advection_plan.hpp"
#include "advection/semi_lagrangian.hpp"
#include "advection/transpose.hpp"
#include "bench/common.hpp"
#include "bsplines/collocation.hpp"
#include "ceilings.hpp"
#include "core/spline_builder.hpp"
#include "core/spline_evaluator.hpp"
#include "hostlapack/getrf.hpp"
#include "parallel/profiling.hpp"
#include "parallel/subview.hpp"
#include "parallel/tiling.hpp"
#include "perf/hardware.hpp"
#include "vlasov/poisson.hpp"
#include "vlasov/vlasov_poisson.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numbers>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace pspl;
using Exec = DefaultExecutionSpace;
using advection::BatchedAdvection1D;
using bsplines::BSplineBasis;
using Json = bench::JsonReport;

constexpr int setup_reps = 7;        // fresh constructions behind setup_s
constexpr int warmup_steps = 3;
constexpr std::size_t timed_min_samples = 100; // >= 10 beyond the p90
constexpr std::size_t traced_min_samples = 20;
constexpr int layer_reps = 20;
constexpr int serial_reps = 5;
constexpr std::size_t checked_per_step = 8;
constexpr double check_tol = 1e-12;

// ---------------------------------------------------------------------------
// Options and run hygiene
// ---------------------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 15.0;
    bool trace = false;
    bool self_test = false;
    std::string out_dir = ".";
    std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why)
{
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e --workload "
                 "<landau_1d1v|advect_uniform_d3|advect_stretched_d5|"
                 "build_table3> [--seed N] [--seconds S] [--trace 0|1] "
                 "[--self-test] [--out DIR] [--commit SHA]\n",
                 why);
    std::exit(2);
}

Options parse_args(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            opt.self_test = true;
            continue;
        }
        if (i + 1 >= argc) {
            usage(("missing value for " + a).c_str());
        }
        const char* v = argv[++i];
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::atof(v);
        } else if (a == "--trace") {
            opt.trace = std::strcmp(v, "0") != 0;
        } else if (a == "--out") {
            opt.out_dir = v;
        } else if (a == "--commit") {
            opt.commit = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!(opt.seconds > 0.0 && opt.seconds <= 60.0)) {
        usage("--seconds must be in (0, 60]");
    }
    return opt;
}

/// The benchmark measures the library's defaults; a behavioural knob in the
/// environment would silently measure another program.
void refuse_behavioural_knobs()
{
    for (const char* knob : {"PSPL_TILE", "PSPL_PRECISION", "PSPL_ADVECT_FUSED",
                             "PSPL_SCHEDULE", "PSPL_BACKEND", "PSPL_PIN"}) {
        if (std::getenv(knob) != nullptr) {
            std::fprintf(stderr,
                         "bench_e2e: refusing to run with %s set; the "
                         "benchmark measures library defaults\n",
                         knob);
            std::exit(2);
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded inputs and sample statistics
// ---------------------------------------------------------------------------

std::uint64_t splitmix(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/// Deterministic noise in [-1, 1) keyed on (seed, i, j).
double noise(std::uint64_t seed, std::uint64_t i, std::uint64_t j)
{
    const std::uint64_t h = splitmix(splitmix(seed ^ splitmix(i)) + j);
    return static_cast<double>(h >> 11) * 0x1p-52 - 1.0;
}

/// Seeded phase in [0, 2 pi).
double phase(std::uint64_t seed)
{
    return std::numbers::pi * (noise(seed, 0x9ba5e, 0) + 1.0);
}

/// Linear interpolation between order statistics.
double quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Runs sample() (which returns the seconds of its timed part) until both
/// `seconds` of wall time and `min_samples` samples are reached; the cap
/// keeps a pathologically slow host inside the process time limit.
template <class Sample>
std::vector<double> run_loop(double seconds, std::size_t min_samples,
                             Sample&& sample)
{
    std::vector<double> out;
    profiling::Timer wall;
    const double cap = 3.0 * seconds + 30.0;
    while ((wall.seconds() < seconds || out.size() < min_samples)
           && wall.seconds() < cap) {
        out.push_back(sample());
    }
    return out;
}

/// Median seconds of `reps` calls of f(), each inside a span named `span`
/// (after one untimed warm-up call). `before()` runs untimed ahead of
/// every call, e.g. to restore an in-place input.
template <class Before, class F>
double timed_median(const char* span, int reps, Before&& before, F&& f)
{
    before();
    f();
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        before();
        profiling::ScopedRegion region(span);
        profiling::Timer tm;
        f();
        t.push_back(tm.seconds());
    }
    return median(t);
}

template <class F>
double timed_median(const char* span, int reps, F&& f)
{
    return timed_median(span, reps, [] {}, std::forward<F>(f));
}

/// `reps` fresh constructions; returns the last object and the median
/// construction time. The previous object is released before the next is
/// built, so the peak footprint is one object.
template <class Make>
auto construct(int reps, double& median_s, Make&& make)
{
    decltype(make()) obj;
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        obj = nullptr;
        profiling::Timer tm;
        obj = make();
        t.push_back(tm.seconds());
    }
    median_s = median(t);
    return obj;
}

double peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 * 1e-6;
}

/// dst = src for two equally shaped contiguous blocks, parallel over rows.
void copy_block(const View2D<double>& dst, const View2D<double>& src)
{
    const std::size_t cols = src.extent(1);
    parallel_for("e2e::restore", RangePolicy<Exec>(src.extent(0)),
                 [=](std::size_t i) {
                     std::memcpy(&dst(i, 0), &src(i, 0), cols * sizeof(double));
                 });
}

View1D<double> points_view(const BSplineBasis& basis)
{
    const auto pts = basis.interpolation_points();
    View1D<double> v("e2e_points", pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        v(i) = pts[i];
    }
    return v;
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

class Checks
{
public:
    explicit Checks(bool self_test) : m_self_test(self_test) {}

    void expect(bool ok)
    {
        ++m_attempted;
        if (!ok) {
            ++m_failed;
        }
    }

    /// One relative-error check: `err` must not exceed `tol` (NaN fails).
    void expect_le(double err, double tol)
    {
        expect(err <= tol);
        if (std::isfinite(err)) {
            m_max_err = std::max(m_max_err, err);
        }
    }

    /// True exactly once under --self-test: the caller corrupts the value
    /// it is about to check.
    bool corrupt_now()
    {
        if (m_self_test && !m_corrupted) {
            m_corrupted = true;
            return true;
        }
        return false;
    }

    std::size_t attempted() const { return m_attempted; }
    std::size_t failed() const { return m_failed; }
    double max_err() const { return m_max_err; }

private:
    bool m_self_test = false;
    bool m_corrupted = false;
    std::size_t m_attempted = 0;
    std::size_t m_failed = 0;
    double m_max_err = 0.0;
};

/// Independent reference: dense LU (hostlapack getrf/getrs) of the
/// collocation matrix, and the scalar SplineEvaluator at the feet.
class DenseReference
{
public:
    explicit DenseReference(const BSplineBasis& basis)
        : m_eval(basis, core::EvaluatorVersion::Scalar)
        , m_lu(bsplines::collocation_matrix(basis))
        , m_piv("e2e_piv", basis.nbasis())
    {
        const int info = hostlapack::getrf(m_lu, m_piv);
        PSPL_EXPECT(info == 0, "bench_e2e: singular collocation matrix");
    }

    std::size_t n() const { return m_lu.extent(0); }

    /// Spline coefficients interpolating `values` (n entries).
    std::vector<double> coefficients(std::vector<double> values) const
    {
        hostlapack::getrs(m_lu, m_piv, View1D<double>(values.data(), {n()}));
        return values;
    }

    /// max |got - ref| / max |ref| for ref = coefficients(values).
    double build_error(std::vector<double> values,
                       const std::vector<double>& got) const
    {
        const auto ref = coefficients(std::move(values));
        double num = 0.0;
        double den = 0.0;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            num = std::max(num, std::abs(got[i] - ref[i]));
            den = std::max(den, std::abs(ref[i]));
        }
        return num / den;
    }

    /// Same for one advected row: got[i] against the spline through
    /// `values` evaluated at the foot points(i) - shift.
    double advect_error(std::vector<double> values, double shift,
                        const View1D<double>& points, const double* got) const
    {
        auto c = coefficients(std::move(values));
        const View1D<double> cv(c.data(), {c.size()});
        double num = 0.0;
        double den = 0.0;
        for (std::size_t i = 0; i < points.extent(0); ++i) {
            const double ref = m_eval(points(i) - shift, cv);
            num = std::max(num, std::abs(got[i] - ref));
            den = std::max(den, std::abs(ref));
        }
        return num / den;
    }

private:
    core::SplineEvaluator m_eval;
    View2D<double> m_lu;
    View1D<int> m_piv;
};

/// Seeded choice of the rows/columns checked after each step.
class Picker
{
public:
    Picker(std::uint64_t seed, std::size_t range)
        : m_rng(splitmix(seed ^ 0xc0ffee)), m_range(range)
    {
    }
    std::vector<std::size_t> next()
    {
        std::vector<std::size_t> out(checked_per_step);
        for (auto& k : out) {
            k = static_cast<std::size_t>(m_rng() % m_range);
        }
        return out;
    }

private:
    std::mt19937_64 m_rng;
    std::size_t m_range;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

struct Run {
    explicit Run(Options o) : opt(std::move(o)), checks(opt.self_test) {}

    Options opt;
    Checks checks;
    std::vector<Metric> metrics; ///< end-to-end or per-layer: the final line
    std::vector<Metric> extras;  ///< workload-specific layers: file only
    std::vector<std::pair<std::string, std::string>> info; ///< provenance
    std::vector<double> steps; ///< step samples of the measured loops

    void metric(std::string name, double v, std::string unit)
    {
        metrics.push_back({std::move(name), v, std::move(unit)});
    }
    void extra(std::string name, double v, std::string unit)
    {
        extras.push_back({std::move(name), v, std::move(unit)});
    }
    void note(std::string key, std::string json_value)
    {
        info.emplace_back(std::move(key), std::move(json_value));
    }
};

void end_to_end_metrics(Run& run, const std::vector<double>& steps,
                        double points, double setup_s)
{
    const double step_s = median(steps);
    run.steps = steps;
    run.metric("step_s", step_s, "s");
    run.metric("step_p90_s", quantile(steps, 0.9), "s");
    run.metric("glups", points * 1e-9 / step_s, "GLUPS");
    run.metric("setup_s", setup_s, "s");
    run.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

// ---------------------------------------------------------------------------
// Per-layer measurements shared by the traced runs
// ---------------------------------------------------------------------------

struct Traced {
    bench::e2e::Ceilings ceil;
    double untimed_step_s = 0.0;
    double traced_step_s = 0.0;
};

/// Ceilings first, while nothing else is allocated; then the View memory
/// high-water mark restarts for the workload.
Traced begin_trace(Run& run)
{
    Traced t;
    t.ceil = bench::e2e::measure_ceilings(l3_cache_bytes());
    std::printf("ceilings: STREAM arrays %.1f MB each (LLC %.1f MB)\n",
                static_cast<double>(t.ceil.array_bytes) * 1e-6,
                static_cast<double>(t.ceil.llc_bytes) * 1e-6);
    run.note("stream_array_bytes", Json::num(t.ceil.array_bytes));
    profiling::reset_memory_peak();
    return t;
}

/// The untimed and the traced loop over the same sample(); profiling stays
/// on afterwards for the layer measurements. Returns the traced count.
template <class Sample>
std::size_t trace_loops(Run& run, Traced& t, Sample&& sample)
{
    const double loop_s = run.opt.seconds / 3.0;
    const auto untimed = run_loop(loop_s, traced_min_samples, sample);
    profiling::clear();
    profiling::set_enabled(true);
    const auto traced = run_loop(loop_s, traced_min_samples, sample);
    t.untimed_step_s = median(untimed);
    t.traced_step_s = median(traced);
    run.steps = untimed;
    run.steps.insert(run.steps.end(), traced.begin(), traced.end());
    run.metric("trace.step_s", t.traced_step_s, "s");
    run.metric("trace.overhead_frac", t.traced_step_s / t.untimed_step_s - 1.0,
               "ratio");
    return traced.size();
}

/// core.build_s and core.eval_s on one (n, batch) block, batch contiguous:
/// build_inplace from a pristine copy, then evaluate_shifted over every
/// row of the precomputed coefficient block at the feet points - v*dt.
/// `work` is overwritten.
std::pair<double, double> measure_core(Run& run, const Traced& t,
                                       const BSplineBasis& basis,
                                       const View2D<double>& pristine,
                                       const View2D<double>& work,
                                       const View1D<double>& velocities,
                                       double dt)
{
    const std::size_t n = pristine.extent(0);
    const std::size_t batch = pristine.extent(1);
    const core::SplineBuilder builder(basis);
    const double build_s = timed_median(
            "core.build_s", layer_reps, [&] { copy_block(work, pristine); },
            [&] { builder.build_inplace(work); });

    View2D<double> eta(FirstTouch, "e2e_coeff_rows", batch, n);
    advection::transpose("e2e::coeff_rows", work, eta);
    const View2D<double> out(work.data(), {batch, n});
    const core::SplineEvaluator evaluator(basis);
    const auto points = points_view(basis);
    const double eval_s = timed_median("core.eval_s", layer_reps, [&] {
        parallel_for("e2e::evaluate_shifted", RangePolicy<Exec>(batch),
                     [=](std::size_t j) {
                         evaluator.evaluate_shifted(points,
                                                    velocities(j) * dt,
                                                    subview(eta, j, ALL),
                                                    &out(j, 0));
                     });
    });

    const double pts = static_cast<double>(n) * static_cast<double>(batch);
    const double computed_gbs = 16.0 * pts * 1e-9 / build_s;
    const double eval_gflops =
            advection::eval_point_flops(basis.degree()) * pts * 1e-9 / eval_s;
    run.metric("core.build_s", build_s, "s");
    run.metric("core.eval_s", eval_s, "s");
    run.metric("core.computed_gbs", computed_gbs, "GB/s");
    run.metric("core.paper_gbs", 8.0 * pts * 1e-9 / build_s, "GB/s");
    run.metric("core.bw_frac", computed_gbs / t.ceil.triad_gbs, "ratio");
    run.metric("core.eval_gflops", eval_gflops, "GFLOP/s");
    run.metric("core.eval_flop_frac", eval_gflops / t.ceil.fma_gflops,
               "ratio");
    return {build_s, eval_s};
}

/// Rates of one advection step over an (nv, n) block.
void advection_rates(Run& run, const Traced& t, int degree, double pts,
                     double step_s, double build_s, double eval_s)
{
    const double gbs = 2.0 * pts * 8.0 * 1e-9 / step_s;
    const double gflops = advection::eval_point_flops(degree) * pts * 1e-9
                          / step_s;
    run.extra("advection.fusion_ratio", step_s / (build_s + eval_s), "ratio");
    run.extra("advection.computed_gbs", gbs, "GB/s");
    run.extra("advection.model_gflops", gflops, "GFLOP/s");
    run.extra("advection.bw_frac", gbs / t.ceil.triad_gbs, "ratio");
    run.extra("advection.flop_frac", gflops / t.ceil.fma_gflops, "ratio");
}

void parallel_metrics(Run& run, double serial_s, double parallel_s)
{
    const double speedup = serial_s / parallel_s;
    run.metric("parallel.serial_step_s", serial_s, "s");
    run.metric("parallel.speedup", speedup, "ratio");
    run.metric("parallel.efficiency", speedup / Exec::concurrency(), "ratio");
}

/// Set-up split shared by every workload: bsplines.basis_s times
/// make_bases(), core.schur_setup_s one SplineBuilder per basis.
template <class MakeBases>
void setup_split(Run& run, MakeBases&& make_bases)
{
    run.metric("bsplines.basis_s",
               timed_median("bsplines.basis_s", setup_reps,
                            [&] { (void)make_bases(); }),
               "s");
    const std::vector<BSplineBasis> bases = make_bases();
    run.metric("core.schur_setup_s",
               timed_median("core.schur_setup_s", setup_reps,
                            [&] {
                                for (const auto& b : bases) {
                                    const core::SplineBuilder builder(b);
                                }
                            }),
               "s");
}

void finish_trace(Run& run, const Traced& t)
{
    run.metric("parallel.view_peak_mb",
               static_cast<double>(profiling::memory_stats().peak_bytes)
                       * 1e-6,
               "MB");
    run.metric("perf.stream_copy_gbs", t.ceil.copy_gbs, "GB/s");
    run.metric("perf.stream_triad_gbs", t.ceil.triad_gbs, "GB/s");
    run.metric("perf.fma_gflops", t.ceil.fma_gflops, "GFLOP/s");
    run.metric("check.max_rel_err", run.checks.max_err(), "ratio");
    const std::string path =
            run.opt.out_dir + "/trace_" + run.opt.workload + ".json";
    profiling::set_enabled(false);
    if (!profiling::write_chrome_trace(path)) {
        std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
        std::exit(1);
    }
    run.note("chrome_trace", Json::str(path));
}

// ---------------------------------------------------------------------------
// Workload: landau_1d1v -- the user loop of examples/vlasov_landau
// ---------------------------------------------------------------------------

constexpr std::size_t landau_nx = 1024;
constexpr std::size_t landau_nv = 2048;
constexpr double landau_dt = 0.1;
constexpr double landau_k = 0.5;
constexpr double landau_alpha = 0.01;
constexpr double landau_vmax = 6.0;
constexpr double landau_gamma = -0.1533; // linear theory at k = 0.5
constexpr double gamma_tol = 0.02;
constexpr double mass_drift_tol = 1e-10; // per step, relative
constexpr std::size_t gamma_fit_steps = 100; // t = 10: four energy peaks

BSplineBasis landau_basis_x()
{
    return BSplineBasis::uniform(3, landau_nx, 0.0,
                                 2.0 * std::numbers::pi / landau_k);
}

BSplineBasis landau_basis_v()
{
    return BSplineBasis::uniform(3, landau_nv, -landau_vmax, landau_vmax);
}

/// Maxwellian with a seeded-phase cosine perturbation and 1e-6 relative
/// seeded noise.
auto landau_f0(std::uint64_t seed)
{
    const double ph = phase(seed);
    const double norm = 1.0 / std::sqrt(2.0 * std::numbers::pi);
    return [=](double x, double v) {
        const double nz = noise(seed, std::bit_cast<std::uint64_t>(x),
                                std::bit_cast<std::uint64_t>(v));
        return norm * std::exp(-0.5 * v * v)
               * (1.0 + landau_alpha * std::cos(landau_k * x + ph))
               * (1.0 + 1e-6 * nz);
    };
}

std::unique_ptr<vlasov::VlasovPoisson1D1V> make_landau(std::uint64_t seed)
{
    auto sim = std::make_unique<vlasov::VlasovPoisson1D1V>(
            landau_basis_x(), landau_basis_v(), landau_dt);
    sim->initialize(landau_f0(seed));
    return sim;
}

/// Mass conservation per step and the damping rate fitted from the peaks
/// of the field energy (as examples/vlasov_landau does).
class LandauPhysics
{
public:
    explicit LandauPhysics(const vlasov::Diagnostics& d0)
        : m_mass0(d0.mass), m_prev(d0.mass)
    {
    }

    void observe(const vlasov::Diagnostics& d, Checks& checks)
    {
        double mass = d.mass;
        if (checks.corrupt_now()) {
            mass *= 1.0 + 1e-8;
        }
        const double drift = std::abs(mass - m_prev) / m_mass0;
        checks.expect_le(drift, mass_drift_tol);
        m_max_drift = std::max(m_max_drift, drift);
        m_prev = d.mass;
        m_t.push_back(d.time);
        m_e.push_back(d.field_energy);
    }

    /// 0.5 * log(E_last_peak / E_first_peak) / (t_last - t_first); NaN
    /// when fewer than two peaks were seen.
    double gamma() const
    {
        std::vector<std::size_t> peaks;
        for (std::size_t s = 1; s + 1 < m_e.size(); ++s) {
            if (m_e[s] > m_e[s - 1] && m_e[s] > m_e[s + 1]) {
                peaks.push_back(s);
            }
        }
        if (peaks.size() < 2) {
            return std::nan("");
        }
        const std::size_t a = peaks.front();
        const std::size_t b = peaks.back();
        return 0.5 * std::log(m_e[b] / m_e[a]) / (m_t[b] - m_t[a]);
    }

    double max_drift() const { return m_max_drift; }
    std::size_t steps() const { return m_e.size(); }

private:
    double m_mass0;
    double m_prev;
    double m_max_drift = 0.0;
    std::vector<double> m_t;
    std::vector<double> m_e;
};

/// Per-layer breakdown of one Strang step, each phase timed through its
/// public entry point on copies of the simulation's current state.
void landau_layers(Run& run, const Traced& t,
                   const vlasov::VlasovPoisson1D1V& sim, double step_s)
{
    const std::size_t nx = landau_nx;
    const std::size_t nv = landau_nv;
    const auto bx = landau_basis_x();
    const auto bv = landau_basis_v();
    View2D<double> f(FirstTouch, "e2e_f", nv, nx);
    copy_block(f, sim.f());
    View1D<double> vx("e2e_vx", nv);
    View1D<double> efield("e2e_efield", nx);
    for (std::size_t j = 0; j < nv; ++j) {
        vx(j) = sim.points_v()(j);
    }
    for (std::size_t i = 0; i < nx; ++i) {
        efield(i) = sim.efield()(i);
    }

    const BatchedAdvection1D adv_x(bx, vx, 0.5 * landau_dt);
    const double x_half_s = timed_median("advection.x_half_s", layer_reps,
                                         [&] { adv_x.step(f); });
    View2D<double> ft(FirstTouch, "e2e_ft", nx, nv);
    const double fwd_s = timed_median("advection.transpose_s", layer_reps, [&] {
        advection::transpose("e2e::transpose_fwd", f, ft);
    });
    const double bwd_s = timed_median("advection.transpose_s", layer_reps, [&] {
        advection::transpose("e2e::transpose_bwd", ft, f);
    });
    const double transpose_s = 0.5 * (fwd_s + bwd_s);
    const BatchedAdvection1D adv_v(bv, efield, landau_dt);
    const double v_s =
            timed_median("advection.v_s", layer_reps, [&] { adv_v.step(ft); });

    // Input of the field solve: rho(x) = integral f dv on the uniform grid.
    const vlasov::Poisson1DPeriodic poisson(bx);
    View1D<double> rho("e2e_rho", nx);
    View1D<double> e_out("e2e_e", nx);
    const double dv = 2.0 * landau_vmax / static_cast<double>(nv);
    for (std::size_t j = 0; j < nv; ++j) {
        for (std::size_t i = 0; i < nx; ++i) {
            rho(i) += f(j, i) * dv;
        }
    }
    const double field_s = timed_median("vlasov.field_s", layer_reps,
                                        [&] { poisson.solve(rho, e_out); });
    const double diag_s = timed_median("vlasov.diag_s", layer_reps,
                                       [&] { (void)sim.diagnostics(); });

    run.extra("vlasov.step_s", step_s, "s");
    run.extra("vlasov.diag_s", diag_s, "s");
    run.extra("vlasov.field_s", field_s, "s");
    run.extra("advection.x_half_s", x_half_s, "s");
    run.extra("advection.v_s", v_s, "s");
    run.extra("advection.transpose_s", transpose_s, "s");
    run.extra("vlasov.self_s",
              step_s - (2.0 * x_half_s + v_s + 2.0 * transpose_s + field_s),
              "s");

    // The core and parallel layers on the x half step's shape: nv splines
    // of nx points, batch contiguous.
    View2D<double> pristine(FirstTouch, "e2e_pristine", nx, nv);
    advection::transpose("e2e::pristine", f, pristine);
    const auto [build_s, eval_s] =
            measure_core(run, t, bx, pristine, ft, vx, 0.5 * landau_dt);
    const double serial_s = timed_median("parallel.serial_step_s", serial_reps,
                                         [&] { adv_x.step<Serial>(f); });
    parallel_metrics(run, serial_s, x_half_s);
    advection_rates(run, t, 3, static_cast<double>(nx * nv), x_half_s,
                    build_s, eval_s);
}

void run_landau(Run& run)
{
    const Options& opt = run.opt;
    Traced t;
    if (opt.trace) {
        t = begin_trace(run);
    }
    double setup_s = 0.0;
    const auto sim = construct(opt.trace ? 1 : setup_reps, setup_s,
                               [&] { return make_landau(opt.seed); });
    LandauPhysics physics(sim->diagnostics());
    std::vector<double> step_only;
    auto sample = [&] {
        profiling::ScopedRegion span("trace.step_s");
        profiling::Timer tm;
        {
            profiling::ScopedRegion s("vlasov.step_s");
            sim->step();
        }
        step_only.push_back(tm.seconds());
        const auto d = sim->diagnostics();
        const double total = tm.seconds();
        physics.observe(d, run.checks);
        return total;
    };
    for (int w = 0; w < warmup_steps; ++w) {
        sample();
    }

    if (!opt.trace) {
        end_to_end_metrics(run,
                           run_loop(opt.seconds, timed_min_samples, sample),
                           static_cast<double>(landau_nx * landau_nv),
                           setup_s);
    } else {
        const auto traced = static_cast<long>(trace_loops(run, t, sample));
        const double step_s = median(
                std::vector<double>(step_only.end() - traced, step_only.end()));
        while (physics.steps() < gamma_fit_steps) {
            sample();
        }
        landau_layers(run, t, *sim, step_s);
        // Set-up split, last: initialize() resets the simulation.
        setup_split(run, [] {
            return std::vector{landau_basis_x(), landau_basis_v()};
        });
        const auto bx = landau_basis_x();
        const auto bv = landau_basis_v();
        run.extra("advection.ctor_s",
                  timed_median("advection.ctor_s", setup_reps,
                               [&] {
                                   const BatchedAdvection1D a1(
                                           bx, View1D<double>("vx", landau_nv),
                                           0.5 * landau_dt);
                                   const BatchedAdvection1D a2(
                                           bv, View1D<double>("e", landau_nx),
                                           landau_dt);
                               }),
                  "s");
        run.extra("vlasov.ctor_s",
                  timed_median("vlasov.ctor_s", setup_reps,
                               [&] {
                                   const vlasov::VlasovPoisson1D1V s(
                                           bx, bv, landau_dt);
                               }),
                  "s");
        run.extra("vlasov.init_s",
                  timed_median("vlasov.init_s", setup_reps,
                               [&] { sim->initialize(landau_f0(opt.seed)); }),
                  "s");
        finish_trace(run, t);
    }

    const double gamma = physics.gamma();
    run.checks.expect(std::abs(gamma - landau_gamma) <= gamma_tol);
    run.extra("vlasov.gamma", gamma, "1/time");
    run.extra("vlasov.mass_drift", physics.max_drift(), "ratio");
}

// ---------------------------------------------------------------------------
// Workloads: advect_uniform_d3 / advect_stretched_d5 -- BatchedAdvection1D
// ---------------------------------------------------------------------------

constexpr std::size_t advect_n = 1000;
constexpr double advect_dt = 1e-3;

struct AdvectState {
    BSplineBasis basis;
    View1D<double> velocities;
    std::optional<BatchedAdvection1D> adv;
    View2D<double> f; ///< (nv, n), x contiguous
};

std::unique_ptr<AdvectState> make_advect(int degree, bool uniform,
                                         std::size_t nv, std::uint64_t seed)
{
    auto s = std::make_unique<AdvectState>();
    s->basis = bench::make_basis(degree, uniform, advect_n);
    s->velocities = advection::uniform_velocities(nv, -1.0, 1.0);
    s->adv.emplace(s->basis, s->velocities, advect_dt);
    s->f = View2D<double>(FirstTouch, "e2e_f", nv, advect_n);
    const auto f = s->f;
    const auto x = s->adv->points();
    const double ph = phase(seed);
    parallel_for("e2e::fill_f", RangePolicy<Exec>(nv), [=](std::size_t j) {
        for (std::size_t i = 0; i < advect_n; ++i) {
            f(j, i) = 1.0 + 0.1 * std::sin(2.0 * std::numbers::pi * x(i) + ph)
                      + 0.01 * noise(seed, j, i);
        }
    });
    return s;
}

void run_advect(Run& run, int degree, bool uniform, std::size_t nv)
{
    const Options& opt = run.opt;
    Traced t;
    if (opt.trace) {
        t = begin_trace(run);
    }
    double setup_s = 0.0;
    const auto st = construct(opt.trace ? 1 : setup_reps, setup_s, [&] {
        return make_advect(degree, uniform, nv, opt.seed);
    });
    const BatchedAdvection1D& adv = *st->adv;
    const View2D<double>& f = st->f;
    run.note("advection_path", Json::str(adv.fused_active() ? "fused"
                                                            : "unfused"));
    if (adv.fused_active()) {
        run.note("plan_tile_cols", Json::num(adv.plan()->tile_cols()));
        run.note("plan_pack_width", Json::num(adv.plan()->pack_width()));
    }

    const DenseReference ref(st->basis);
    Picker picker(opt.seed, nv);
    std::vector<std::vector<double>> saved(checked_per_step);
    auto sample = [&] {
        const auto rows = picker.next();
        for (std::size_t k = 0; k < rows.size(); ++k) {
            saved[k].assign(&f(rows[k], 0), &f(rows[k], 0) + advect_n);
        }
        double s = 0.0;
        {
            profiling::ScopedRegion span("trace.step_s");
            profiling::Timer tm;
            adv.step(f);
            s = tm.seconds();
        }
        for (std::size_t k = 0; k < rows.size(); ++k) {
            const std::size_t j = rows[k];
            if (run.checks.corrupt_now()) {
                f(j, 0) += 1e-6;
            }
            run.checks.expect_le(
                    ref.advect_error(saved[k], st->velocities(j) * advect_dt,
                                     adv.points(), &f(j, 0)),
                    check_tol);
        }
        return s;
    };
    for (int w = 0; w < warmup_steps; ++w) {
        sample();
    }
    const double points = static_cast<double>(advect_n * nv);

    if (!opt.trace) {
        end_to_end_metrics(run,
                           run_loop(opt.seconds, timed_min_samples, sample),
                           points, setup_s);
        return;
    }
    trace_loops(run, t, sample);
    setup_split(run, [&] {
        return std::vector{bench::make_basis(degree, uniform, advect_n)};
    });
    run.extra("advection.ctor_s",
              timed_median("advection.ctor_s", setup_reps,
                           [&] {
                               const BatchedAdvection1D a(
                                       st->basis, st->velocities, advect_dt);
                           }),
              "s");
    View2D<double> pristine(FirstTouch, "e2e_pristine", advect_n, nv);
    View2D<double> work(FirstTouch, "e2e_work", advect_n, nv);
    advection::transpose("e2e::pristine", f, pristine);
    const auto [build_s, eval_s] = measure_core(run, t, st->basis, pristine,
                                                work, st->velocities,
                                                advect_dt);
    const double serial_s = timed_median("parallel.serial_step_s", serial_reps,
                                         [&] { adv.step<Serial>(f); });
    parallel_metrics(run, serial_s, t.untimed_step_s);
    advection_rates(run, t, degree, points, t.untimed_step_s, build_s,
                    eval_s);
    finish_trace(run, t);
}

// ---------------------------------------------------------------------------
// Workload: build_table3 -- SplineBuilder::build_inplace (paper Table III)
// ---------------------------------------------------------------------------

// 1000 x 40000 doubles = 320 MB, beyond a 300 MiB LLC, so the default tile
// policy streams it untiled exactly as at the paper's batch of 100000, while
// a run still collects >= 100 builds.
constexpr std::size_t table3_n = 1000;
constexpr std::size_t table3_batch = 40000;

struct Table3State {
    BSplineBasis basis;
    core::SplineBuilder builder;
    View2D<double> pristine; ///< (n, batch) interpolation values
    View2D<double> rhs;      ///< (n, batch) solved in place
};

std::unique_ptr<Table3State> make_table3(std::uint64_t seed)
{
    auto s = std::make_unique<Table3State>();
    s->basis = bench::make_basis(3, true, table3_n);
    s->builder = core::SplineBuilder(s->basis);
    s->pristine = View2D<double>(FirstTouch, "e2e_pristine", table3_n,
                                 table3_batch);
    s->rhs = View2D<double>(FirstTouch, "e2e_rhs", table3_n, table3_batch);
    const auto b = s->pristine;
    const auto x = points_view(s->basis);
    const double ph = phase(seed);
    parallel_for("e2e::fill_rhs", RangePolicy<Exec>(table3_n),
                 [=](std::size_t i) {
                     const double base =
                             std::sin(2.0 * std::numbers::pi * x(i) + ph)
                             + 0.4 * std::cos(34.0 * x(i) + 0.5);
                     for (std::size_t j = 0; j < table3_batch; ++j) {
                         b(i, j) = base + 0.3 * noise(seed, i, j);
                     }
                 });
    return s;
}

void run_table3(Run& run)
{
    const Options& opt = run.opt;
    Traced t;
    if (opt.trace) {
        t = begin_trace(run);
    }
    double setup_s = 0.0;
    const auto st = construct(opt.trace ? 1 : setup_reps, setup_s,
                              [&] { return make_table3(opt.seed); });
    const DenseReference ref(st->basis);
    Picker picker(opt.seed, table3_batch);
    std::vector<double> values(table3_n);
    std::vector<double> got(table3_n);
    auto sample = [&] {
        copy_block(st->rhs, st->pristine);
        double s = 0.0;
        {
            profiling::ScopedRegion span("trace.step_s");
            profiling::Timer tm;
            st->builder.build_inplace(st->rhs);
            s = tm.seconds();
        }
        for (const std::size_t c : picker.next()) {
            for (std::size_t i = 0; i < table3_n; ++i) {
                values[i] = st->pristine(i, c);
                got[i] = st->rhs(i, c);
            }
            if (run.checks.corrupt_now()) {
                got[0] += 1e-6;
            }
            run.checks.expect_le(ref.build_error(values, got), check_tol);
        }
        return s;
    };
    for (int w = 0; w < warmup_steps; ++w) {
        sample();
    }
    const double points = static_cast<double>(table3_n * table3_batch);

    if (!opt.trace) {
        end_to_end_metrics(run,
                           run_loop(opt.seconds, timed_min_samples, sample),
                           points, setup_s);
        return;
    }
    trace_loops(run, t, sample);
    setup_split(run, [] {
        return std::vector{bench::make_basis(3, true, table3_n)};
    });
    const auto velocities =
            advection::uniform_velocities(table3_batch, -1.0, 1.0);
    measure_core(run, t, st->basis, st->pristine, st->rhs, velocities,
                 advect_dt);
    const double serial_s = timed_median(
            "parallel.serial_step_s", serial_reps,
            [&] { copy_block(st->rhs, st->pristine); },
            [&] { st->builder.build_inplace<Serial>(st->rhs); });
    parallel_metrics(run, serial_s, t.untimed_step_s);
    finish_trace(run, t);
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

struct Workload {
    const char* name;
    void (*run)(Run&);
};

constexpr Workload workloads[] = {
        {"landau_1d1v", run_landau},
        {"advect_uniform_d3", [](Run& r) { run_advect(r, 3, true, 8000); }},
        {"advect_stretched_d5", [](Run& r) { run_advect(r, 5, false, 3000); }},
        {"build_table3", run_table3},
};

std::string json_number(double v)
{
    return std::isfinite(v) ? Json::num(v) : std::string("null");
}

std::string metrics_json(const std::vector<Metric>& ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += (i ? ", " : "") + Json::str(ms[i].name) + ": {\"value\": "
               + json_number(ms[i].value) + ", \"unit\": "
               + Json::str(ms[i].unit) + "}";
    }
    return out + "}";
}

#if defined(__clang__)
constexpr const char* compiler = "clang " __clang_version__;
#else
constexpr const char* compiler = "gcc " __VERSION__;
#endif

/// Human-readable table, the full results file, then the one-line result.
int report(Run& run)
{
    const Options& opt = run.opt;
    bool finite = true;
    for (const auto* list : {&run.metrics, &run.extras}) {
        for (const Metric& m : *list) {
            finite = finite && std::isfinite(m.value);
            std::printf("  %-28s %-22.10g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
    }
    const std::size_t attempted = run.checks.attempted();
    const std::size_t failed = run.checks.failed();
    const bool correct = failed == 0 && attempted > 0 && finite;
    std::printf("checks: %zu attempted, %zu failed; %zu samples\n", attempted,
                failed, run.steps.size());

    std::string prov = "{\"commit\": " + Json::str(opt.commit)
                       + ", \"compiler\": " + Json::str(compiler)
                       + ", \"isa\": " + Json::str(perf::compiled_isa_summary())
                       + ", \"backend\": " + Json::str(Exec::name())
                       + ", \"threads\": " + Json::num(Exec::concurrency())
                       + ", \"tile\": "
                       + Json::str(TilePolicy::from_env().describe())
                       + ", \"llc_bytes\": " + Json::num(l3_cache_bytes())
                       + ", \"l2_bytes\": " + Json::num(l2_cache_bytes());
    for (const auto& [key, value] : run.info) {
        prov += ", " + Json::str(key) + ": " + value;
    }
    prov += "}";
    std::string samples = "[";
    for (std::size_t i = 0; i < run.steps.size(); ++i) {
        samples += (i ? ", " : "") + json_number(run.steps[i]);
    }
    samples += "]";
    const std::string path = opt.out_dir + "/" + opt.workload + "-trace"
                             + (opt.trace ? "1" : "0") + "-seed"
                             + std::to_string(opt.seed) + ".json";
    std::FILE* fp = std::fopen(path.c_str(), "w");
    if (fp == nullptr) {
        std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(
            fp,
            "{\"schema\": \"pspl-e2e-v1\", \"workload\": %s, \"seed\": %llu, "
            "\"trace\": %d, \"seconds\": %s, \"self_test\": %s, "
            "\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
            "\"fail_frac\": %s, \"samples\": %zu, \"warmup_steps\": %d, "
            "\"setup_reps\": %d, \"provenance\": %s, \"metrics\": %s, "
            "\"layers\": %s, \"step_samples_s\": %s}\n",
            Json::str(opt.workload).c_str(),
            static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
            Json::num(opt.seconds).c_str(), opt.self_test ? "true" : "false",
            correct ? "true" : "false", attempted, failed,
            Json::num(attempted ? static_cast<double>(failed)
                                          / static_cast<double>(attempted)
                                : 1.0)
                    .c_str(),
            run.steps.size(), warmup_steps, setup_reps, prov.c_str(),
            metrics_json(run.metrics).c_str(),
            metrics_json(run.extras).c_str(), samples.c_str());
    std::fclose(fp);
    std::printf("results: %s\n", path.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metrics_json(run.metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
    bench::require_unchecked();
    refuse_behavioural_knobs();
    Run run(parse_args(argc, argv));
    const Workload* w = nullptr;
    for (const Workload& c : workloads) {
        if (run.opt.workload == c.name) {
            w = &c;
        }
    }
    if (w == nullptr) {
        usage(("unknown workload '" + run.opt.workload + "'").c_str());
    }
    std::printf("bench_e2e: workload %s seed %llu %s run, %d threads on %s, "
                "%s\n",
                w->name, static_cast<unsigned long long>(run.opt.seed),
                run.opt.trace ? "traced" : "timed", Exec::concurrency(),
                Exec::name(), perf::compiled_isa_summary().c_str());
    w->run(run);
    return report(run);
}

