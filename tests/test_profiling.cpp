// Observability-layer tests: nested span parentage, the disabled-mode
// zero-allocation guarantee, deterministic multi-threaded merges, the
// machine-readable perf report and the chrome-trace export.
#include "bsplines/basis.hpp"
#include "core/batched_solve.hpp"
#include "core/spline_builder.hpp"
#include "parallel/parallel.hpp"
#include "parallel/profiling.hpp"
#include "parallel/tiling.hpp"
#include "parallel/view.hpp"
#include "perf/report.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace prof = pspl::profiling;

// Global allocation counter fed by a replaced operator new: the
// disabled-mode test asserts the instrumentation path performs no heap
// allocation when profiling is off (spans on hot paths must be free).
std::atomic<std::uint64_t> g_new_calls{0};

} // namespace

void* operator new(std::size_t size)
{
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

void* operator new[](std::size_t size)
{
    return ::operator new(size);
}

void operator delete(void* p) noexcept
{
    std::free(p); // NOLINT: pairs with the malloc-backed operator new above
}

void operator delete(void* p, std::size_t) noexcept
{
    ::operator delete(p);
}

void operator delete[](void* p) noexcept
{
    ::operator delete(p);
}

void operator delete[](void* p, std::size_t) noexcept
{
    ::operator delete(p);
}

namespace {

class ProfilingFixture : public ::testing::Test {
protected:
    void SetUp() override
    {
        prof::clear();
        prof::set_enabled(true);
    }
    void TearDown() override
    {
        prof::set_enabled(false);
        prof::clear();
    }
};

TEST_F(ProfilingFixture, NestedSpansRecordParentage)
{
    {
        prof::ScopedRegion outer("outer");
        {
            prof::ScopedSpan inner("inner");
        }
        {
            prof::ScopedSpan inner("inner");
        }
    }
    const auto tree = prof::snapshot_tree();
    ASSERT_TRUE(tree.count("outer"));
    ASSERT_TRUE(tree.count("outer/inner"));
    EXPECT_EQ(tree.at("outer").count, 1u);
    EXPECT_EQ(tree.at("outer/inner").count, 2u);
    // The leaf-keyed snapshot aggregates the same events by final label.
    const auto flat = prof::snapshot();
    ASSERT_TRUE(flat.count("inner"));
    EXPECT_EQ(flat.at("inner").count, 2u);
    EXPECT_FALSE(flat.count("outer/inner"));
}

TEST_F(ProfilingFixture, KernelSpansNestUnderOpenRegion)
{
    {
        prof::ScopedRegion region("solve_phase");
        pspl::parallel_for("worker_kernel", std::size_t{64},
                           [](std::size_t) {});
    }
    const auto tree = prof::snapshot_tree();
    ASSERT_TRUE(tree.count("solve_phase/worker_kernel"));
    EXPECT_EQ(tree.at("solve_phase/worker_kernel").count, 1u);
}

TEST_F(ProfilingFixture, CountersAttachToSpans)
{
    {
        prof::ScopedSpan span("counted_kernel");
        span.add_counters(/*bytes=*/1.0e9, /*flops=*/2.0e9);
    }
    const auto stats = prof::stats_for("counted_kernel");
    EXPECT_EQ(stats.count, 1u);
    EXPECT_DOUBLE_EQ(stats.bytes, 1.0e9);
    EXPECT_DOUBLE_EQ(stats.flops, 2.0e9);
    EXPECT_GT(stats.achieved_bw_gbs(), 0.0);
    EXPECT_GT(stats.achieved_gflops(), 0.0);

    // Standalone counters become zero-duration child events under the
    // currently open span (how fused kernels attribute modelled traffic).
    {
        prof::ScopedSpan span("fused_kernel");
        prof::add_counters("pttrs", 5.0e8, 1.0e8);
    }
    const auto tree = prof::snapshot_tree();
    ASSERT_TRUE(tree.count("fused_kernel/pttrs"));
    EXPECT_DOUBLE_EQ(tree.at("fused_kernel/pttrs").bytes, 5.0e8);
    EXPECT_EQ(tree.at("fused_kernel/pttrs").count, 0u);
}

TEST_F(ProfilingFixture, TileSpanRecordsTheWidthThatRan)
{
    // A requested tile wider than the batch runs as one batch-wide tile,
    // and the tile_w= span names the width that ran, not the request.
    const auto basis = pspl::bsplines::BSplineBasis::uniform(3, 32, 0.0, 1.0);
    const pspl::core::SplineBuilder builder(basis,
                                            pspl::core::BuilderVersion::Fused);
    pspl::View2D<double> b("b", basis.nbasis(), 33);
    for (std::size_t i = 0; i < b.extent(0); ++i) {
        for (std::size_t j = 0; j < b.extent(1); ++j) {
            b(i, j) = 1.0 + 0.01 * static_cast<double>(i + j);
        }
    }
    pspl::core::schur_solve_batched(builder.solver().device_data(), b,
                                    pspl::core::BuilderVersion::Fused,
                                    pspl::TilePolicy::explicit_width(128));
    const auto flat = prof::snapshot();
    EXPECT_TRUE(flat.count("tile_w=33"));
    EXPECT_FALSE(flat.count("tile_w=128"));
}

TEST(ProfilingDisabled, SpansAllocateNothingWhenDisabled)
{
    prof::set_enabled(false);
    prof::clear();
    // Warm both code paths once so one-time lazy state is excluded.
    {
        prof::ScopedSpan warm("warmup");
        warm.add_counters(1.0, 1.0);
    }
    const std::uint64_t before = g_new_calls.load();
    for (int i = 0; i < 1000; ++i) {
        prof::ScopedSpan span("disabled_span");
        span.add_counters(8.0, 2.0);
    }
    prof::add_counters("disabled_counter", 1.0, 1.0);
    const std::uint64_t after = g_new_calls.load();
    EXPECT_EQ(after, before);
    EXPECT_EQ(prof::stats_for("disabled_span").count, 0u);
}

TEST_F(ProfilingFixture, MultiThreadedMergeIsDeterministic)
{
    constexpr int kThreads = 8;
    constexpr int kSpansPerThread = 200;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                prof::ScopedSpan span("mt_span");
            }
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    const auto first = prof::snapshot_tree();
    ASSERT_TRUE(first.count("mt_span"));
    EXPECT_EQ(first.at("mt_span").count,
              static_cast<std::uint64_t>(kThreads) * kSpansPerThread);
    // Once producers are quiescent, repeated snapshots agree exactly.
    const auto second = prof::snapshot_tree();
    ASSERT_EQ(first.size(), second.size());
    for (const auto& [path, stats] : first) {
        ASSERT_TRUE(second.count(path));
        EXPECT_EQ(second.at(path).count, stats.count);
        EXPECT_DOUBLE_EQ(second.at(path).total_seconds,
                         stats.total_seconds);
    }
    EXPECT_EQ(prof::event_count(),
              static_cast<std::size_t>(kThreads) * kSpansPerThread);
}

TEST_F(ProfilingFixture, ClearHidesEarlierEpochs)
{
    prof::record("before_clear", 1.0);
    ASSERT_EQ(prof::stats_for("before_clear").count, 1u);
    prof::clear();
    EXPECT_TRUE(prof::snapshot().empty());
    prof::record("after_clear", 1.0);
    EXPECT_EQ(prof::snapshot().size(), 1u);
}

TEST_F(ProfilingFixture, ReportJsonSchemaRoundTrip)
{
    {
        prof::ScopedSpan span("report_span");
        span.add_counters(1.0e6, 2.0e6);
    }
    const std::string report = pspl::perf::report_json();
    // Stable schema markers the CI diff tooling keys on.
    EXPECT_NE(report.find("\"schema\": \"pspl-perf-report-v5\""),
              std::string::npos);
    for (const char* key :
         {"\"isa\"", "\"host\"", "\"peak_gflops\"", "\"peak_bw_gbs\"",
          "\"memory\"", "\"peak_bytes\"", "\"spans\"", "\"path\"",
          "\"count\"", "\"seconds\"", "\"bytes\"", "\"flops\"",
          "\"precision\"", "\"refine_iters\"", "\"backend\"",
          "\"counter_only\"", "\"achieved_bw_gbs\"", "\"achieved_gflops\"",
          "\"bw_percent_of_peak\""}) {
        EXPECT_NE(report.find(key), std::string::npos) << key;
    }
    EXPECT_NE(report.find("report_span"), std::string::npos);
    // Structural round-trip: braces and brackets balance and close at the
    // end (string values in the report never contain either).
    int depth = 0;
    for (const char c : report) {
        depth += (c == '{' || c == '[');
        depth -= (c == '}' || c == ']');
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(report.front(), '{');
    EXPECT_EQ(report.back(), '}');
}

TEST_F(ProfilingFixture, ReportMarksCounterOnlySpans)
{
    // A timed span with attributed counters is a measurement...
    {
        prof::ScopedSpan span("timed_with_counters");
        span.add_counters(4.0e6, 8.0e6);
    }
    // ...an attribution-only counter child (cost model booked without a
    // sample) is not, and its zero achieved_bw_gbs must be flagged as
    // structural rather than read as a measured 0 GB/s.
    prof::add_counters("attribution_only_child", 1.0e6, 2.0e6);
    const std::string report = pspl::perf::report_json();
    const auto flag_for = [&](const std::string& path) {
        const auto at = report.find("\"path\": \"" + path + "\"");
        EXPECT_NE(at, std::string::npos) << path;
        const auto key = report.find("\"counter_only\": ", at);
        EXPECT_NE(key, std::string::npos) << path;
        const auto end = report.find(',', key);
        return report.substr(key, end - key);
    };
    EXPECT_EQ(flag_for("timed_with_counters"), "\"counter_only\": false");
    EXPECT_EQ(flag_for("attribution_only_child"), "\"counter_only\": true");
}

TEST_F(ProfilingFixture, ChromeTraceWritesLoadableFile)
{
    {
        prof::ScopedRegion outer("trace_outer");
        prof::ScopedSpan inner("trace_inner");
        prof::add_counters("trace_counter", 64.0, 32.0);
    }
    const std::string path = ::testing::TempDir() + "pspl_trace_test.json";
    ASSERT_TRUE(prof::write_chrome_trace(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string trace = buf.str();
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos); // spans
    EXPECT_NE(trace.find("\"ph\": \"i\""), std::string::npos); // counters
    EXPECT_NE(trace.find("trace_inner"), std::string::npos);
    EXPECT_NE(trace.find("trace_outer/trace_inner"), std::string::npos);
    std::remove(path.c_str());
}

TEST(ProfilingMemory, ViewAllocationsDriveHighWaterMark)
{
    prof::reset_memory_peak();
    const auto before = prof::memory_stats();
    {
        pspl::View1D<double> v("hwm_probe", 4096);
        const auto during = prof::memory_stats();
        EXPECT_GE(during.live_bytes, before.live_bytes + 4096 * 8);
        EXPECT_GE(during.peak_bytes, during.live_bytes);
        EXPECT_GT(during.allocations, before.allocations);
    }
    const auto after = prof::memory_stats();
    EXPECT_EQ(after.live_bytes, before.live_bytes);
    EXPECT_GE(after.peak_bytes, before.live_bytes + 4096 * 8);
}

} // namespace
