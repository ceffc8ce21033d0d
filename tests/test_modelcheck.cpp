// Exhaustive interleaving verification of the thread-pool concurrency
// protocols (ctest label: modelcheck).
//
// Two suites:
//   * ModelCheckSelf   -- the checker must be able to *find* known weak
//     behaviours (store buffering under relaxed, message passing without
//     release, ABBA deadlock) and must prove classic SC guarantees; this
//     calibrates trust in the litmus results below.
//   * ModelCheckLitmus -- every protocol litmus from
//     tests/modelcheck_litmus.hpp passes exhaustive exploration with the
//     production memory orders.
//   * ModelCheckPinning -- explore() runs its scheduler and litmus
//     threads on one CPU of the caller's affinity mask and gives the
//     caller its mask back afterwards.
//
// Exploration bounds come from the environment (PSPL_MC_MAX_EXECUTIONS,
// PSPL_MC_PREEMPTION_BOUND, PSPL_MC_MAX_STEPS, PSPL_MC_NO_SLEEP_SETS);
// unset means exhaustive, which is the CI default.

#include "modelcheck_litmus.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace mc = pspl::mc;

namespace {

// Print the exploration statistics so CI logs document the interleaving
// counts each guarantee rests on.
void report(const char* name, const mc::Result& r)
{
    std::printf("[   MC   ] %-28s %llu executions, %llu pruned, %llu transitions%s\n",
                name,
                static_cast<unsigned long long>(r.executions),
                static_cast<unsigned long long>(r.pruned),
                static_cast<unsigned long long>(r.transitions),
                r.hit_execution_bound ? " (execution bound hit)" : " (exhaustive)");
    std::fflush(stdout);
}

void expect_pass(const char* name, void (*prog)(mc::Sim&))
{
    const mc::Options opts = mc::Options::from_env();
    const mc::Result r = mc::explore(prog, opts);
    report(name, r);
    EXPECT_FALSE(r.failed) << r.failure_kind << "\n" << r.failure;
    if (opts.max_executions == 0) {
        EXPECT_FALSE(r.hit_execution_bound);
    }
    EXPECT_GE(r.executions, 1u);
}

} // namespace

// ---------------------------------------------------------------------------
// Checker self-calibration.
// ---------------------------------------------------------------------------

TEST(ModelCheckSelf, FindsStoreBufferingWeakBehaviour)
{
    // Classic SB: with relaxed accesses the outcome r1 == r2 == 0 is
    // allowed, so an assertion forbidding it must fail.
    auto prog = [](mc::Sim& sim) {
        struct St {
            mc::atomic<int> x{0, "x"};
            mc::atomic<int> y{0, "y"};
            mc::atomic<int> r1{0, "r1"};
            mc::atomic<int> r2{0, "r2"};
        };
        auto st = std::make_shared<St>();
        sim.thread([st] {
            st->x.store(1, pspl::sync::relaxed);
            st->r1.store(st->y.load(pspl::sync::relaxed), pspl::sync::relaxed);
        });
        sim.thread([st] {
            st->y.store(1, pspl::sync::relaxed);
            st->r2.store(st->x.load(pspl::sync::relaxed), pspl::sync::relaxed);
        });
        sim.on_exit([st] {
            const int r1 = st->r1.load(pspl::sync::relaxed);
            const int r2 = st->r2.load(pspl::sync::relaxed);
            MC_ASSERT(r1 + r2 != 0);
        });
    };
    const mc::Result r = mc::explore(prog);
    report("self.sb_relaxed", r);
    EXPECT_TRUE(r.failed);
    EXPECT_STREQ(r.failure_kind.c_str(), "assert");
}

TEST(ModelCheckSelf, SeqCstForbidsStoreBuffering)
{
    // Same program with seq_cst: r1 == r2 == 0 is forbidden; the checker
    // must prove the assertion over every interleaving.
    auto prog = [](mc::Sim& sim) {
        struct St {
            mc::atomic<int> x{0, "x"};
            mc::atomic<int> y{0, "y"};
            mc::atomic<int> r1{0, "r1"};
            mc::atomic<int> r2{0, "r2"};
        };
        auto st = std::make_shared<St>();
        sim.thread([st] {
            st->x.store(1);
            st->r1.store(st->y.load(), pspl::sync::relaxed);
        });
        sim.thread([st] {
            st->y.store(1);
            st->r2.store(st->x.load(), pspl::sync::relaxed);
        });
        sim.on_exit([st] {
            const int r1 = st->r1.load(pspl::sync::relaxed);
            const int r2 = st->r2.load(pspl::sync::relaxed);
            MC_ASSERT(r1 + r2 != 0);
        });
    };
    const mc::Result r = mc::explore(prog);
    report("self.sb_seq_cst", r);
    EXPECT_FALSE(r.failed) << r.failure;
}

TEST(ModelCheckSelf, FindsMessagePassingRaceWithoutRelease)
{
    // MP with a relaxed flag store: the consumer's payload read races.
    auto prog = [](mc::Sim& sim) {
        struct St {
            mc::plain<int> data{0};
            mc::atomic<int> flag{0, "flag"};
        };
        auto st = std::make_shared<St>();
        sim.thread([st] {
            st->data = 1;
            st->flag.store(1, pspl::sync::relaxed);
        });
        sim.thread([st] {
            if (st->flag.load(pspl::sync::acquire) == 1) {
                const int v = st->data;
                MC_ASSERT(v == 1);
            }
        });
    };
    const mc::Result r = mc::explore(prog);
    report("self.mp_relaxed", r);
    EXPECT_TRUE(r.failed);
    EXPECT_STREQ(r.failure_kind.c_str(), "race");
}

TEST(ModelCheckSelf, MessagePassingWithReleasePasses)
{
    auto prog = [](mc::Sim& sim) {
        struct St {
            mc::plain<int> data{0};
            mc::atomic<int> flag{0, "flag"};
        };
        auto st = std::make_shared<St>();
        sim.thread([st] {
            st->data = 1;
            st->flag.store(1, pspl::sync::release);
        });
        sim.thread([st] {
            if (st->flag.load(pspl::sync::acquire) == 1) {
                const int v = st->data;
                MC_ASSERT(v == 1);
            }
        });
    };
    const mc::Result r = mc::explore(prog);
    report("self.mp_release", r);
    EXPECT_FALSE(r.failed) << r.failure;
}

TEST(ModelCheckSelf, FindsAbbaDeadlock)
{
    auto prog = [](mc::Sim& sim) {
        struct St {
            mc::mutex a;
            mc::mutex b;
        };
        auto st = std::make_shared<St>();
        sim.thread([st] {
            std::lock_guard<mc::mutex> la(st->a);
            std::lock_guard<mc::mutex> lb(st->b);
        });
        sim.thread([st] {
            std::lock_guard<mc::mutex> lb(st->b);
            std::lock_guard<mc::mutex> la(st->a);
        });
    };
    const mc::Result r = mc::explore(prog);
    report("self.abba", r);
    EXPECT_TRUE(r.failed);
    EXPECT_STREQ(r.failure_kind.c_str(), "deadlock");
}

TEST(ModelCheckSelf, CountsDependentInterleavings)
{
    // Two conflicting stores to one location: exactly two orders, and
    // sleep sets must not prune either of them.
    auto prog = [](mc::Sim& sim) {
        struct St {
            mc::atomic<int> x{0, "x"};
        };
        auto st = std::make_shared<St>();
        sim.thread([st] { st->x.store(1, pspl::sync::relaxed); });
        sim.thread([st] { st->x.store(2, pspl::sync::relaxed); });
        sim.on_exit([st] {
            const int v = st->x.load(pspl::sync::relaxed);
            MC_ASSERT(v == 1 || v == 2);
        });
    };
    const mc::Result r = mc::explore(prog);
    report("self.two_stores", r);
    EXPECT_FALSE(r.failed) << r.failure;
    EXPECT_EQ(r.executions, 2u);
}

TEST(ModelCheckSelf, SleepSetsPruneIndependentInterleavings)
{
    // Four pairwise-independent stores: every raw interleaving (each
    // thread contributes 3 visible ops counting its Start, so C(6,3) = 20
    // schedules) collapses to a single Mazurkiewicz trace under sleep
    // sets.
    auto prog = [](mc::Sim& sim) {
        struct St {
            mc::atomic<int> a{0, "a"};
            mc::atomic<int> b{0, "b"};
            mc::atomic<int> c{0, "c"};
            mc::atomic<int> d{0, "d"};
        };
        auto st = std::make_shared<St>();
        sim.thread([st] {
            st->a.store(1, pspl::sync::relaxed);
            st->b.store(1, pspl::sync::relaxed);
        });
        sim.thread([st] {
            st->c.store(1, pspl::sync::relaxed);
            st->d.store(1, pspl::sync::relaxed);
        });
    };
    mc::Options no_por;
    no_por.sleep_sets = false;
    const mc::Result raw = mc::explore(prog, no_por);
    report("self.indep_raw", raw);
    EXPECT_FALSE(raw.failed) << raw.failure;
    EXPECT_EQ(raw.executions, 20u);

    const mc::Result por = mc::explore(prog);
    report("self.indep_por", por);
    EXPECT_FALSE(por.failed) << por.failure;
    EXPECT_LT(por.executions, 20u);
}

TEST(ModelCheckSelf, FlagsUnlockByNonOwner)
{
    auto prog = [](mc::Sim& sim) {
        struct St {
            mc::mutex m;
        };
        auto st = std::make_shared<St>();
        sim.thread([st] { st->m.unlock(); });
    };
    const mc::Result r = mc::explore(prog);
    report("self.bad_unlock", r);
    EXPECT_TRUE(r.failed);
    EXPECT_STREQ(r.failure_kind.c_str(), "lock-error");
}

// ---------------------------------------------------------------------------
// Protocol litmus programs (production templates, production orders).
// ---------------------------------------------------------------------------

TEST(ModelCheckLitmus, EpochPublishMakesPayloadVisible)
{
    expect_pass("L1.epoch_publish", litmus::epoch_publish);
}

TEST(ModelCheckLitmus, EpochDrainOrdersChunkResults)
{
    expect_pass("L2.epoch_drain", litmus::epoch_drain);
}

TEST(ModelCheckLitmus, QuiescentRefillDoesNotRaceWorkers)
{
    expect_pass("L3.quiescent_refill", litmus::quiescent_refill);
}

TEST(ModelCheckLitmus, DequeOwnerThiefExactlyOnce)
{
    expect_pass("L4.deque_1v1", litmus::deque_1v1);
}

TEST(ModelCheckLitmus, DequeOwnerTwoThievesExactlyOnce)
{
    expect_pass("L5.deque_2thief", litmus::deque_2thief);
}

TEST(ModelCheckLitmus, NestedInlineChunkEffectsVisible)
{
    expect_pass("L6.nested_inline", litmus::nested_inline);
}

TEST(ModelCheckLitmus, ExceptionRecordedThenPoolReused)
{
    expect_pass("L7.exception_recovery", litmus::exception_recovery);
}

TEST(ModelCheckLitmus, SingleThreadDrain)
{
    expect_pass("L8.single_thread", litmus::single_thread_drain);
}

TEST(ModelCheckLitmus, ProfilerChunkPublishedPrefix)
{
    expect_pass("L9.chunk_prefix", litmus::chunk_published_prefix);
}

// ---------------------------------------------------------------------------
// CPU confinement of the exploring threads.
// ---------------------------------------------------------------------------

#if defined(__linux__)
namespace {

cpu_set_t thread_mask()
{
    cpu_set_t m;
    CPU_ZERO(&m);
    EXPECT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(m), &m), 0);
    return m;
}

void set_thread_mask(const cpu_set_t& m)
{
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(m), &m), 0);
}

/// Affinity masks seen by the litmus threads and the exit check (which
/// runs on the scheduler thread) of every execution.
struct MaskLog {
    std::mutex m;
    std::vector<cpu_set_t> masks;

    void record()
    {
        const cpu_set_t mask = thread_mask();
        std::lock_guard<std::mutex> lk(m);
        masks.push_back(mask);
    }
};

mc::Result explore_recording(MaskLog& log)
{
    return mc::explore([&log](mc::Sim& sim) {
        auto x = std::make_shared<mc::atomic<int>>(0, "x");
        sim.thread([x, &log] {
            log.record();
            x->store(1);
        });
        sim.thread([x, &log] {
            log.record();
            (void)x->load();
        });
        sim.on_exit([&log] { log.record(); });
    });
}

} // namespace
#endif

TEST(ModelCheckPinning, LitmusThreadsShareOneCpu)
{
#if defined(__linux__)
    const cpu_set_t caller = thread_mask();
    MaskLog log;
    const mc::Result r = explore_recording(log);
    EXPECT_FALSE(r.failed) << r.failure;
    ASSERT_GE(log.masks.size(), 3u);
    for (const cpu_set_t& m : log.masks) {
        EXPECT_EQ(CPU_COUNT(&m), 1);
        EXPECT_TRUE(CPU_EQUAL(&m, &log.masks.front()));
        cpu_set_t inside;
        CPU_AND(&inside, &m, &caller);
        EXPECT_EQ(CPU_COUNT(&inside), 1);
    }
#else
    GTEST_SKIP() << "CPU affinity is Linux-only";
#endif
}

TEST(ModelCheckPinning, ExploreRestoresCallerMask)
{
#if defined(__linux__)
    const cpu_set_t before = thread_mask();
    MaskLog log;
    EXPECT_FALSE(explore_recording(log).failed);
    const cpu_set_t after = thread_mask();
    EXPECT_TRUE(CPU_EQUAL(&before, &after));
#else
    GTEST_SKIP() << "CPU affinity is Linux-only";
#endif
}

TEST(ModelCheckPinning, OuterMaskIsRespected)
{
#if defined(__linux__)
    // Narrow the caller to its highest allowed CPU, as a taskset would:
    // every exploring thread must stay on it, and explore() must hand
    // back the narrowed mask rather than the process mask.
    const cpu_set_t original = thread_mask();
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &original)) {
            last = c;
        }
    }
    ASSERT_GE(last, 0);
    cpu_set_t narrow;
    CPU_ZERO(&narrow);
    CPU_SET(last, &narrow);
    set_thread_mask(narrow);

    MaskLog log;
    const mc::Result r = explore_recording(log);
    const cpu_set_t after = thread_mask();
    set_thread_mask(original);

    EXPECT_FALSE(r.failed) << r.failure;
    ASSERT_GE(log.masks.size(), 3u);
    for (const cpu_set_t& m : log.masks) {
        EXPECT_TRUE(CPU_EQUAL(&m, &narrow));
    }
    EXPECT_TRUE(CPU_EQUAL(&after, &narrow));
#else
    GTEST_SKIP() << "CPU affinity is Linux-only";
#endif
}
