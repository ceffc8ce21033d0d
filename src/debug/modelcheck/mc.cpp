// Model-checker engine: stateless DFS over schedule and reads-from
// choices, replay-based, with sleep-set partial-order reduction and an
// optional preemption bound. See mc.hpp for the model's contract and
// docs/STATIC_ANALYSIS.md for the long-form discussion.
//
// Execution machinery: litmus threads are real std::threads from a small
// pool reused across executions, but exactly one ever runs. A thread
// parks at every visible operation after registering the operation's
// descriptor; the scheduler (the thread that called mc::explore) picks
// one parked thread, hands it the run token, and sleeps until the token
// comes back. The chosen thread performs its pending operation's effect
// against the engine's location tables -- it has exclusive access by
// construction -- then runs uninstrumented code until the next visible
// operation. Choice points consult the DFS stack: within the replayed
// prefix the recorded branch is forced; past it, new nodes are pushed
// with their untried alternatives, and backtracking advances the deepest
// node that still has one.
//
// For the length of an explore() call the scheduler and every pool
// thread share one CPU (CallerCpuPin). Since exactly one of them runs at
// a time, each handoff is then a same-CPU context switch instead of a
// cross-CPU wakeup, which costs an inter-processor interrupt and, on a
// virtual machine, often an exit to the hypervisor: the exhaustive L5
// litmus ran in 12 s pinned against 100 s unpinned on a 4-vCPU VM. The
// explored interleavings do not change -- the scheduler, never the OS,
// picks every step.
#include "debug/modelcheck/mc.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace pspl::mc {

namespace detail {

struct SimAccess {
    static std::vector<std::function<void()>>& bodies(Sim& s)
    {
        return s.m_bodies;
    }
    static std::vector<std::function<void()>>& checks(Sim& s)
    {
        return s.m_checks;
    }
};

} // namespace detail

namespace {

constexpr int k_max_threads = 7;
constexpr int k_clock_slots = k_max_threads + 1; // slot 0 = main/setup

/// Vector clock over the main context and up to k_max_threads threads.
struct VClock {
    std::array<std::uint32_t, k_clock_slots> c{};

    void join(const VClock& o)
    {
        for (int i = 0; i < k_clock_slots; ++i) {
            c[static_cast<std::size_t>(i)]
                    = std::max(c[static_cast<std::size_t>(i)],
                               o.c[static_cast<std::size_t>(i)]);
        }
    }

    bool leq(const VClock& o) const
    {
        for (int i = 0; i < k_clock_slots; ++i) {
            if (c[static_cast<std::size_t>(i)]
                > o.c[static_cast<std::size_t>(i)]) {
                return false;
            }
        }
        return true;
    }
};

enum class OpKind : int {
    Start,
    Load,
    Store,
    Rmw,
    Cas,
    Lock,
    Unlock,
    Yield,
    Fence,
    Finish
};

struct OpDesc {
    OpKind kind = OpKind::Start;
    int loc = -1;
    std::memory_order mo = std::memory_order_relaxed;
};

bool changes_state(OpKind k)
{
    return k == OpKind::Store || k == OpKind::Rmw || k == OpKind::Cas
           || k == OpKind::Unlock;
}

bool is_mutex_op(OpKind k)
{
    return k == OpKind::Lock || k == OpKind::Unlock;
}

/// Independence relation for sleep sets: two operations are independent
/// when executing them in either order reaches the same state with the
/// same branching structure. Conservative where it must be (yields watch
/// the global store count, so they depend on every state-changing op).
bool independent(const OpDesc& a, const OpDesc& b)
{
    if (a.kind == OpKind::Start || b.kind == OpKind::Start
        || a.kind == OpKind::Finish || b.kind == OpKind::Finish) {
        return true;
    }
    if (a.kind == OpKind::Fence || b.kind == OpKind::Fence) {
        return false; // not modeled; never prune around one
    }
    if (a.kind == OpKind::Yield || b.kind == OpKind::Yield) {
        const OpDesc& other = a.kind == OpKind::Yield ? b : a;
        if (other.kind == OpKind::Yield) {
            return true;
        }
        return !changes_state(other.kind);
    }
    if (is_mutex_op(a.kind) && is_mutex_op(b.kind)) {
        return a.loc != b.loc;
    }
    if (is_mutex_op(a.kind) || is_mutex_op(b.kind)) {
        return true;
    }
    // Memory operations. Same location: only two loads commute (their
    // reads-from candidate sets are insensitive to each other's order).
    if (a.loc != b.loc) {
        return true;
    }
    return a.kind == OpKind::Load && b.kind == OpKind::Load;
}

struct StoreRec {
    std::uint64_t val = 0;
    VClock commit;   ///< writer's clock at the store
    VClock release;  ///< release clock (valid if has_release)
    bool has_release = false;
    bool sc = false;
    int slot = 0;    ///< writer's clock slot
};

struct AtomicLoc {
    const char* name = nullptr;
    std::vector<StoreRec> stores; ///< modification order; [0] is the init
    int last_sc = -1;             ///< index of newest seq_cst store
    std::array<int, k_max_threads> view{}; ///< per-thread coherence floor
};

struct PlainLoc {
    int w_slot = 0;
    std::uint32_t w_count = 0; ///< writer's own component at last write
    std::array<std::uint32_t, k_clock_slots> reads{};
};

struct MutexRec {
    int owner = -1; ///< vthread id, -1 free
    VClock rel;
    bool has_rel = false;
};

struct LogEv {
    int tid; ///< -1 = main context
    OpDesc op;
    std::uint64_t value = 0;
    int rf = -1; ///< store index read (loads)
    const char* note = nullptr;
};

struct SleepEnt {
    int tid;
    OpDesc op;
};

/// One node of the DFS choice stack. Persistent across replays; `done`
/// accumulates the fully explored branches (their transitions seed the
/// sleep sets of later siblings).
struct Node {
    bool is_read = false;
    int chosen = -1;
    std::vector<int> alts;
    // schedule nodes only:
    std::vector<SleepEnt> sleep_base;
    std::vector<SleepEnt> done;
    std::array<OpDesc, k_max_threads> op_at{};
    int prev_thread = -1;
    bool prev_enabled = false;
    int path_preempts = 0;
};

struct VThread {
    std::function<void()> body;
    OpDesc pending;
    bool finished = false;
    VClock clk;
    // Yield gating: after a yield the thread stays descheduled while the
    // global store count is unchanged; `fresh` marks the eventual-
    // visibility resume and `spent` that it already ran once fresh at
    // this count.
    std::uint64_t gate_count = ~std::uint64_t{0};
    std::uint64_t spent_count = ~std::uint64_t{0};
    bool fresh = false;
};

struct Worker {
    std::mutex m;
    std::condition_variable cv;
    bool run_token = false;
    bool has_job = false;
    bool quit = false;
    std::function<void()> job;
    std::thread th;
};

bool has_acquire(std::memory_order mo)
{
    return mo == std::memory_order_acquire || mo == std::memory_order_consume
           || mo == std::memory_order_acq_rel
           || mo == std::memory_order_seq_cst;
}

bool has_release(std::memory_order mo)
{
    return mo == std::memory_order_release || mo == std::memory_order_acq_rel
           || mo == std::memory_order_seq_cst;
}

const char* order_name(std::memory_order mo)
{
    switch (mo) {
    case std::memory_order_relaxed: return "rlx";
    case std::memory_order_consume: return "cns";
    case std::memory_order_acquire: return "acq";
    case std::memory_order_release: return "rel";
    case std::memory_order_acq_rel: return "acq_rel";
    case std::memory_order_seq_cst: return "sc";
    }
    return "?";
}

const char* site_name(sync::Site s)
{
    switch (s) {
    case sync::Site::epoch_publish: return "epoch_publish";
    case sync::Site::epoch_poll: return "epoch_poll";
    case sync::Site::epoch_chunk_done: return "epoch_chunk_done";
    case sync::Site::epoch_enter: return "epoch_enter";
    case sync::Site::epoch_leave: return "epoch_leave";
    case sync::Site::epoch_quiescent_poll: return "epoch_quiescent_poll";
    case sync::Site::deque_pop_bottom_store: return "deque_pop_bottom_store";
    case sync::Site::deque_pop_top_load: return "deque_pop_top_load";
    case sync::Site::deque_pop_cas: return "deque_pop_cas";
    case sync::Site::deque_steal_top_load: return "deque_steal_top_load";
    case sync::Site::deque_steal_bottom_load:
        return "deque_steal_bottom_load";
    case sync::Site::deque_steal_cas: return "deque_steal_cas";
    case sync::Site::chunk_count_publish: return "chunk_count_publish";
    case sync::Site::chunk_count_read: return "chunk_count_read";
    case sync::Site::chunk_link_publish: return "chunk_link_publish";
    case sync::Site::chunk_link_read: return "chunk_link_read";
    case sync::Site::site_count: break;
    }
    return "?";
}

const char* op_name(OpKind k)
{
    switch (k) {
    case OpKind::Start: return "start";
    case OpKind::Load: return "load";
    case OpKind::Store: return "store";
    case OpKind::Rmw: return "rmw";
    case OpKind::Cas: return "cas";
    case OpKind::Lock: return "lock";
    case OpKind::Unlock: return "unlock";
    case OpKind::Yield: return "yield";
    case OpKind::Fence: return "fence";
    case OpKind::Finish: return "finish";
    }
    return "?";
}

/// Pins the thread that calls explore() to one CPU of its own affinity
/// mask -- the one it is running on, so an outer taskset or cgroup is
/// respected -- and restores the saved mask on destruction. The pool
/// threads the engine starts afterwards inherit the one-CPU mask. Off
/// Linux, or when the mask cannot be read, nothing is pinned.
class CallerCpuPin
{
public:
    CallerCpuPin()
    {
#if defined(__linux__)
        CPU_ZERO(&m_saved);
        if (pthread_getaffinity_np(pthread_self(), sizeof(m_saved),
                                   &m_saved)
            != 0) {
            return;
        }
        int cpu = sched_getcpu();
        if (cpu < 0 || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &m_saved)) {
            cpu = -1;
            for (int c = 0; c < CPU_SETSIZE && cpu < 0; ++c) {
                if (CPU_ISSET(c, &m_saved)) {
                    cpu = c;
                }
            }
        }
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        m_pinned = pthread_setaffinity_np(pthread_self(), sizeof(one), &one)
                   == 0;
#endif
    }

    ~CallerCpuPin()
    {
#if defined(__linux__)
        if (m_pinned) {
            (void)pthread_setaffinity_np(pthread_self(), sizeof(m_saved),
                                         &m_saved);
        }
#endif
    }

    CallerCpuPin(const CallerCpuPin&) = delete;
    CallerCpuPin& operator=(const CallerCpuPin&) = delete;

private:
#if defined(__linux__)
    bool m_pinned = false;
    cpu_set_t m_saved;
#endif
};

class Engine;
Engine* g_engine = nullptr;
thread_local int t_self = -1;

class Engine
{
public:
    explicit Engine(Options o)
        : opts(std::move(o))
    {
        for (const Mutation& m : opts.mutations) {
            mutation_table[static_cast<std::size_t>(m.site)]
                    = static_cast<int>(m.order);
        }
    }

    Options opts;
    Result res;
    std::uint64_t generation = 0;
    std::array<int, static_cast<std::size_t>(sync::Site::site_count)>
            mutation_table = [] {
                std::array<int,
                           static_cast<std::size_t>(sync::Site::site_count)>
                        t{};
                t.fill(-1);
                return t;
            }();

    // --- per-execution state -------------------------------------------
    std::vector<AtomicLoc> atomics;
    std::vector<PlainLoc> plains;
    std::vector<MutexRec> mutexes;
    std::vector<VThread> vt;
    int nthreads = 0;
    VClock main_clk;
    std::uint64_t store_count = 0;
    std::uint64_t steps = 0;
    std::vector<LogEv> log;
    std::uint64_t log_dropped = 0;
    bool failing = false;
    bool aborting = false;
    bool pruned_run = false;
    int last_sched = -1;
    int path_preempts = 0;

    // --- DFS state (persistent across executions) ----------------------
    std::vector<Node> stack;
    std::size_t replay_pos = 0;
    std::vector<SleepEnt> cur_sleep;

    // --- thread pool / handoff -----------------------------------------
    std::vector<std::unique_ptr<Worker>> workers;
    std::mutex sched_m;
    std::condition_variable sched_cv;
    int parked = 0;

    // ===================================================================
    // Failure reporting
    // ===================================================================

    void record_failure(const char* kind, const std::string& msg)
    {
        if (res.failed) {
            return;
        }
        res.failed = true;
        failing = true;
        res.failure_kind = kind;
        res.failure = msg + "\n" + format_trace();
    }

    [[noreturn]] void fail(const char* kind, const std::string& msg)
    {
        record_failure(kind, msg);
        throw AbortExecution{};
    }

    std::string format_trace() const
    {
        std::string out;
        char buf[256];
        if (!opts.mutations.empty()) {
            out += "active mutations:\n";
            for (const Mutation& m : opts.mutations) {
                std::snprintf(buf, sizeof buf, "  %s -> %s\n",
                              site_name(m.site), order_name(m.order));
                out += buf;
            }
        }
        std::snprintf(buf, sizeof buf,
                      "execution #%llu, trace (%llu earlier events "
                      "dropped):\n",
                      static_cast<unsigned long long>(res.executions + 1),
                      static_cast<unsigned long long>(log_dropped));
        out += buf;
        for (const LogEv& e : log) {
            const char* loc = "";
            char locbuf[64];
            if (e.op.loc >= 0
                && (e.op.kind == OpKind::Load || e.op.kind == OpKind::Store
                    || e.op.kind == OpKind::Rmw
                    || e.op.kind == OpKind::Cas)) {
                const auto& L
                        = atomics[static_cast<std::size_t>(e.op.loc)];
                if (L.name != nullptr) {
                    loc = L.name;
                } else {
                    std::snprintf(locbuf, sizeof locbuf, "atomic#%d",
                                  e.op.loc);
                    loc = locbuf;
                }
            }
            std::snprintf(buf, sizeof buf,
                          "  T%d %-6s %-18s %-7s = %llu%s%s%s\n", e.tid,
                          op_name(e.op.kind), loc, order_name(e.op.mo),
                          static_cast<unsigned long long>(e.value),
                          e.rf >= 0 ? " (stale read)" : "",
                          e.note != nullptr ? "  " : "",
                          e.note != nullptr ? e.note : "");
            out += buf;
        }
        for (int i = 0; i < nthreads; ++i) {
            const VThread& t = vt[static_cast<std::size_t>(i)];
            std::snprintf(buf, sizeof buf, "  T%d: %s (next op: %s)\n", i,
                          t.finished ? "finished" : "blocked",
                          op_name(t.pending.kind));
            out += buf;
        }
        return out;
    }

    void append_log(const LogEv& e)
    {
        if (log.size() >= 4096) {
            log.erase(log.begin(), log.begin() + 2048);
            log_dropped += 2048;
        }
        log.push_back(e);
    }

    // ===================================================================
    // Scheduler <-> worker handoff
    // ===================================================================

    void park_self()
    {
        const int tid = t_self;
        {
            std::lock_guard<std::mutex> lk(sched_m);
            ++parked;
        }
        sched_cv.notify_one();
        Worker& w = *workers[static_cast<std::size_t>(tid)];
        std::unique_lock<std::mutex> lk(w.m);
        w.cv.wait(lk, [&] { return w.run_token; });
        w.run_token = false;
    }

    /// Worker-side scheduling point: register the pending operation, park
    /// until chosen, then return so the caller performs the effect.
    ///
    /// While this thread is unwinding AbortExecution, destructors may run
    /// further visible ops (a lock_guard's unlock, typically): those must
    /// neither park (the scheduler is tearing the execution down) nor
    /// throw again (that would terminate mid-unwind). They return
    /// immediately and the effect functions early-out on `aborting`.
    void sync_op(const OpDesc& op)
    {
        if (aborting && std::uncaught_exceptions() > 0) {
            return;
        }
        VThread& t = vt[static_cast<std::size_t>(t_self)];
        t.pending = op;
        park_self();
        if (aborting) {
            throw AbortExecution{};
        }
    }

    /// Scheduler-side: wake `tid` and sleep until every thread is parked
    /// or finished again.
    void resume(int tid)
    {
        {
            std::lock_guard<std::mutex> lk(sched_m);
            --parked;
        }
        Worker& w = *workers[static_cast<std::size_t>(tid)];
        {
            std::lock_guard<std::mutex> lk(w.m);
            w.run_token = true;
        }
        w.cv.notify_one();
        std::unique_lock<std::mutex> lk(sched_m);
        sched_cv.wait(lk, [&] { return parked == nthreads; });
    }

    void finish_self()
    {
        vt[static_cast<std::size_t>(t_self)].pending = {OpKind::Finish, -1,
                                                        std::memory_order_relaxed};
        vt[static_cast<std::size_t>(t_self)].finished = true;
        {
            std::lock_guard<std::mutex> lk(sched_m);
            ++parked;
        }
        sched_cv.notify_one();
    }

    void ensure_workers(int n)
    {
        while (static_cast<int>(workers.size()) < n) {
            auto w = std::make_unique<Worker>();
            Worker* raw = w.get();
            raw->th = std::thread([raw] {
                for (;;) {
                    std::function<void()> job;
                    {
                        std::unique_lock<std::mutex> lk(raw->m);
                        raw->cv.wait(lk, [&] {
                            return raw->has_job || raw->quit;
                        });
                        if (raw->quit) {
                            return;
                        }
                        job = std::move(raw->job);
                        raw->has_job = false;
                    }
                    job();
                }
            });
            workers.push_back(std::move(w));
        }
    }

    void shutdown_pool()
    {
        for (auto& w : workers) {
            {
                std::lock_guard<std::mutex> lk(w->m);
                w->quit = true;
            }
            w->cv.notify_one();
        }
        for (auto& w : workers) {
            if (w->th.joinable()) {
                w->th.join();
            }
        }
        workers.clear();
    }

    // ===================================================================
    // Choice points
    // ===================================================================

    bool fresh_active(const VThread& t) const
    {
        return t.fresh && t.gate_count == store_count;
    }

    bool is_enabled(int tid) const
    {
        const VThread& t = vt[static_cast<std::size_t>(tid)];
        if (t.finished) {
            return false;
        }
        if (t.pending.kind == OpKind::Lock
            && mutexes[static_cast<std::size_t>(t.pending.loc)].owner
                       != -1) {
            return false;
        }
        if (t.gate_count == store_count && !t.fresh) {
            return false;
        }
        return true;
    }

    int preempt_cost(const Node& n, int tid) const
    {
        return (n.prev_thread >= 0 && n.prev_enabled
                && tid != n.prev_thread)
                       ? 1
                       : 0;
    }

    void advance_after(Node& n)
    {
        const OpDesc& cop = n.op_at[static_cast<std::size_t>(n.chosen)];
        cur_sleep.clear();
        for (const SleepEnt& e : n.sleep_base) {
            if (independent(e.op, cop)) {
                cur_sleep.push_back(e);
            }
        }
        for (const SleepEnt& e : n.done) {
            if (independent(e.op, cop)) {
                cur_sleep.push_back(e);
            }
        }
        path_preempts = n.path_preempts + preempt_cost(n, n.chosen);
        last_sched = n.chosen;
    }

    /// Pick the next thread to run. Returns -1 when this branch is
    /// sleep-set-redundant (the caller aborts the execution uncounted).
    int choose_sched(const std::vector<int>& enabled)
    {
        if (replay_pos < stack.size()) {
            Node& n = stack[replay_pos];
            if (n.is_read
                || std::find(enabled.begin(), enabled.end(), n.chosen)
                           == enabled.end()) {
                record_failure("nondeterminism",
                               "replay diverged: the litmus setup or "
                               "bodies are not deterministic");
                return -1;
            }
            ++replay_pos;
            advance_after(n);
            return n.chosen;
        }

        Node n;
        n.is_read = false;
        n.prev_thread = last_sched;
        n.prev_enabled
                = last_sched >= 0
                  && std::find(enabled.begin(), enabled.end(), last_sched)
                             != enabled.end();
        n.path_preempts = path_preempts;
        if (opts.sleep_sets) {
            n.sleep_base = cur_sleep;
        }
        for (int tid : enabled) {
            n.op_at[static_cast<std::size_t>(tid)]
                    = vt[static_cast<std::size_t>(tid)].pending;
        }

        std::vector<int> cands;
        for (int tid : enabled) {
            const bool slept
                    = std::any_of(n.sleep_base.begin(), n.sleep_base.end(),
                                  [&](const SleepEnt& e) {
                                      return e.tid == tid;
                                  });
            if (!slept) {
                cands.push_back(tid);
            }
        }
        if (cands.empty()) {
            ++res.pruned;
            pruned_run = true;
            return -1;
        }
        if (opts.preemption_bound >= 0) {
            std::vector<int> affordable;
            for (int tid : cands) {
                if (n.path_preempts + preempt_cost(n, tid)
                    <= opts.preemption_bound) {
                    affordable.push_back(tid);
                }
            }
            // A forced move past the budget beats silently wedging the
            // execution; the bound is a heuristic leg, not the proof leg.
            if (!affordable.empty()) {
                cands = std::move(affordable);
            }
        }

        int def = cands.front();
        if (std::find(cands.begin(), cands.end(), n.prev_thread)
            != cands.end()) {
            def = n.prev_thread; // stay on the same thread when possible
        }
        n.chosen = def;
        for (int tid : cands) {
            if (tid != def) {
                n.alts.push_back(tid);
            }
        }
        stack.push_back(std::move(n));
        ++replay_pos;
        advance_after(stack.back());
        return stack.back().chosen;
    }

    /// Pick the store a load reads from (worker context). `cands` is
    /// ascending; the newest store is the first branch explored.
    int choose_read(const std::vector<int>& cands)
    {
        if (cands.size() == 1) {
            return cands.front();
        }
        if (replay_pos < stack.size()) {
            Node& n = stack[replay_pos];
            if (!n.is_read
                || std::find(cands.begin(), cands.end(), n.chosen)
                           == cands.end()) {
                fail("nondeterminism",
                     "replay diverged at a reads-from choice: the litmus "
                     "setup or bodies are not deterministic");
            }
            ++replay_pos;
            return n.chosen;
        }
        Node n;
        n.is_read = true;
        n.chosen = cands.back();
        n.alts.assign(cands.begin(), cands.end() - 1);
        stack.push_back(std::move(n));
        ++replay_pos;
        return stack.back().chosen;
    }

    bool backtrack()
    {
        while (!stack.empty()) {
            Node& n = stack.back();
            if (!n.alts.empty()) {
                if (!n.is_read) {
                    n.done.push_back(
                            {n.chosen,
                             n.op_at[static_cast<std::size_t>(n.chosen)]});
                }
                n.chosen = n.alts.back();
                n.alts.pop_back();
                return true;
            }
            stack.pop_back();
        }
        return false;
    }

    // ===================================================================
    // Operation effects
    // ===================================================================

    VClock& clock_of(int tid)
    {
        return tid < 0 ? main_clk : vt[static_cast<std::size_t>(tid)].clk;
    }

    static int slot_of(int tid) { return tid + 1; }

    void tick(int tid)
    {
        VClock& c = clock_of(tid);
        ++c.c[static_cast<std::size_t>(slot_of(tid))];
    }

    void init_check(int loc)
    {
        const AtomicLoc& L = atomics[static_cast<std::size_t>(loc)];
        if (!L.stores.front().commit.leq(clock_of(t_self))) {
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          "T%d reached atomic %s before its initialization "
                          "was published (racy pointer / unsynchronized "
                          "creation)",
                          t_self,
                          L.name != nullptr ? L.name : "<unnamed>");
            fail("unpublished-init", buf);
        }
    }

    int do_register_atomic(std::uint64_t init, const char* name)
    {
        tick(t_self);
        AtomicLoc L;
        L.name = name;
        StoreRec s;
        s.val = init;
        s.commit = clock_of(t_self);
        s.slot = slot_of(t_self);
        L.stores.push_back(std::move(s));
        L.view.fill(0);
        atomics.push_back(std::move(L));
        return static_cast<int>(atomics.size()) - 1;
    }

    std::uint64_t do_load(int loc, std::memory_order mo)
    {
        if (t_self < 0) {
            // Main context (setup / on_exit): deterministic latest read.
            AtomicLoc& L = atomics[static_cast<std::size_t>(loc)];
            tick(-1);
            const StoreRec& s = L.stores.back();
            if (has_acquire(mo) && s.has_release) {
                main_clk.join(s.release);
            }
            return s.val;
        }
        sync_op({OpKind::Load, loc, mo});
        if (aborting) {
            return atomics[static_cast<std::size_t>(loc)].stores.back().val;
        }
        init_check(loc);
        const int tid = t_self;
        VThread& t = vt[static_cast<std::size_t>(tid)];
        AtomicLoc& L = atomics[static_cast<std::size_t>(loc)];
        tick(tid);
        const int hi = static_cast<int>(L.stores.size()) - 1;
        int idx = hi;
        if (!fresh_active(t)) {
            int lo = L.view[static_cast<std::size_t>(tid)];
            for (int i = hi; i > lo; --i) {
                if (L.stores[static_cast<std::size_t>(i)].commit.leq(
                            t.clk)) {
                    lo = i;
                    break;
                }
            }
            if (mo == std::memory_order_seq_cst && L.last_sc > lo) {
                lo = L.last_sc;
            }
            if (lo < hi) {
                std::vector<int> cands;
                cands.reserve(static_cast<std::size_t>(hi - lo) + 1);
                for (int i = lo; i <= hi; ++i) {
                    cands.push_back(i);
                }
                idx = choose_read(cands);
            }
        }
        const StoreRec& s = L.stores[static_cast<std::size_t>(idx)];
        if (L.view[static_cast<std::size_t>(tid)] < idx) {
            L.view[static_cast<std::size_t>(tid)] = idx;
        }
        if (has_acquire(mo) && s.has_release) {
            t.clk.join(s.release);
        }
        append_log({tid, {OpKind::Load, loc, mo}, s.val,
                    idx < hi ? idx : -1, nullptr});
        return s.val;
    }

    void note_store(AtomicLoc& L, StoreRec&& s, int tid)
    {
        L.stores.push_back(std::move(s));
        const int idx = static_cast<int>(L.stores.size()) - 1;
        L.view[static_cast<std::size_t>(tid)] = idx;
        if (L.stores.back().sc) {
            L.last_sc = idx;
        }
        ++store_count;
    }

    void do_store(int loc, std::uint64_t v, std::memory_order mo)
    {
        AtomicLoc* L = &atomics[static_cast<std::size_t>(loc)];
        if (t_self < 0) {
            tick(-1);
            StoreRec s;
            s.val = v;
            s.commit = main_clk;
            s.slot = 0;
            if (has_release(mo)) {
                s.release = main_clk;
                s.has_release = true;
            }
            s.sc = mo == std::memory_order_seq_cst;
            L->stores.push_back(std::move(s));
            if (L->stores.back().sc) {
                L->last_sc = static_cast<int>(L->stores.size()) - 1;
            }
            ++store_count;
            return;
        }
        sync_op({OpKind::Store, loc, mo});
        if (aborting) {
            return;
        }
        L = &atomics[static_cast<std::size_t>(loc)]; // may have reallocated
        init_check(loc);
        const int tid = t_self;
        VThread& t = vt[static_cast<std::size_t>(tid)];
        tick(tid);
        StoreRec s;
        s.val = v;
        s.commit = t.clk;
        s.slot = slot_of(tid);
        if (has_release(mo)) {
            s.release = t.clk;
            s.has_release = true;
        }
        s.sc = mo == std::memory_order_seq_cst;
        note_store(*L, std::move(s), tid);
        append_log({tid, {OpKind::Store, loc, mo}, v, -1, nullptr});
        // Accesses AFTER a publishing op must carry a strictly larger
        // clock component than the snapshot it published, or they would
        // ride along on a release edge that is sequenced before them.
        tick(tid);
    }

    std::uint64_t do_rmw(int loc, std::uint64_t (*f)(std::uint64_t, void*),
                         void* ctx, std::memory_order mo)
    {
        if (t_self < 0) {
            AtomicLoc& L = atomics[static_cast<std::size_t>(loc)];
            tick(-1);
            const StoreRec prev = L.stores.back();
            StoreRec s;
            s.val = f(prev.val, ctx);
            s.commit = main_clk;
            s.slot = 0;
            s.release = prev.release;
            s.has_release = prev.has_release;
            if (has_release(mo)) {
                s.release.join(main_clk);
                s.has_release = true;
            }
            s.sc = mo == std::memory_order_seq_cst;
            L.stores.push_back(std::move(s));
            if (L.stores.back().sc) {
                L.last_sc = static_cast<int>(L.stores.size()) - 1;
            }
            ++store_count;
            return prev.val;
        }
        sync_op({OpKind::Rmw, loc, mo});
        if (aborting) {
            return atomics[static_cast<std::size_t>(loc)].stores.back().val;
        }
        init_check(loc);
        const int tid = t_self;
        VThread& t = vt[static_cast<std::size_t>(tid)];
        AtomicLoc& L = atomics[static_cast<std::size_t>(loc)];
        tick(tid);
        // RMWs read the latest store (atomicity in modification order);
        // an acquire RMW synchronizes with it, and the new store extends
        // the release sequence it belongs to.
        const StoreRec prev = L.stores.back();
        if (has_acquire(mo) && prev.has_release) {
            t.clk.join(prev.release);
        }
        StoreRec s;
        s.val = f(prev.val, ctx);
        s.commit = t.clk;
        s.slot = slot_of(tid);
        s.release = prev.release;
        s.has_release = prev.has_release;
        if (has_release(mo)) {
            s.release.join(t.clk);
            s.has_release = true;
        }
        s.sc = mo == std::memory_order_seq_cst;
        const std::uint64_t nv = s.val;
        note_store(L, std::move(s), tid);
        append_log({tid, {OpKind::Rmw, loc, mo}, nv, -1, nullptr});
        tick(tid); // see do_store: post-op accesses outrun the snapshot
        return prev.val;
    }

    bool do_cas(int loc, std::uint64_t& expected, std::uint64_t desired,
                std::memory_order mo)
    {
        if (t_self < 0) {
            AtomicLoc& L = atomics[static_cast<std::size_t>(loc)];
            if (L.stores.back().val != expected) {
                expected = L.stores.back().val;
                return false;
            }
            std::uint64_t d = desired;
            auto set = [](std::uint64_t, void* c) {
                return *static_cast<std::uint64_t*>(c);
            };
            do_rmw(loc, +set, &d, mo);
            return true;
        }
        sync_op({OpKind::Cas, loc, mo});
        if (aborting) {
            return false;
        }
        init_check(loc);
        const int tid = t_self;
        VThread& t = vt[static_cast<std::size_t>(tid)];
        AtomicLoc& L = atomics[static_cast<std::size_t>(loc)];
        tick(tid);
        const StoreRec prev = L.stores.back();
        if (prev.val == expected) {
            if (has_acquire(mo) && prev.has_release) {
                t.clk.join(prev.release);
            }
            StoreRec s;
            s.val = desired;
            s.commit = t.clk;
            s.slot = slot_of(tid);
            s.release = prev.release;
            s.has_release = prev.has_release;
            if (has_release(mo)) {
                s.release.join(t.clk);
                s.has_release = true;
            }
            s.sc = mo == std::memory_order_seq_cst;
            note_store(L, std::move(s), tid);
            append_log({tid, {OpKind::Cas, loc, mo}, desired, -1,
                        "success"});
            tick(tid); // see do_store
            return true;
        }
        // Failed CAS: a load of the latest store.
        if (has_acquire(mo) && prev.has_release) {
            t.clk.join(prev.release);
        }
        L.view[static_cast<std::size_t>(tid)]
                = static_cast<int>(L.stores.size()) - 1;
        expected = prev.val;
        append_log({tid, {OpKind::Cas, loc, mo}, prev.val, -1, "failed"});
        return false;
    }

    int do_register_plain()
    {
        PlainLoc P;
        P.w_slot = slot_of(t_self);
        P.w_count = clock_of(t_self)
                            .c[static_cast<std::size_t>(slot_of(t_self))];
        plains.push_back(P);
        return static_cast<int>(plains.size()) - 1;
    }

    // Plain accesses are not scheduling points (they execute atomically
    // with the preceding visible op) and must not throw: a detected race
    // is recorded and aborts at the next scheduling point.
    void do_plain_read(int loc) noexcept
    {
        if (aborting) {
            return; // unwinding destructors must not record stale races
        }
        PlainLoc& P = plains[static_cast<std::size_t>(loc)];
        const VClock& clk = clock_of(t_self);
        if (P.w_count > clk.c[static_cast<std::size_t>(P.w_slot)]) {
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          "data race: T%d reads plain#%d concurrently "
                          "with a write by %s",
                          t_self, loc,
                          P.w_slot == 0 ? "main" : "another thread");
            record_failure("race", buf);
            return;
        }
        const int slot = slot_of(t_self);
        P.reads[static_cast<std::size_t>(slot)]
                = clk.c[static_cast<std::size_t>(slot)];
    }

    void do_plain_write(int loc) noexcept
    {
        if (aborting) {
            return;
        }
        PlainLoc& P = plains[static_cast<std::size_t>(loc)];
        const VClock& clk = clock_of(t_self);
        if (P.w_count > clk.c[static_cast<std::size_t>(P.w_slot)]) {
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          "data race: T%d writes plain#%d concurrently "
                          "with another write",
                          t_self, loc);
            record_failure("race", buf);
            return;
        }
        for (int u = 0; u < k_clock_slots; ++u) {
            if (P.reads[static_cast<std::size_t>(u)]
                > clk.c[static_cast<std::size_t>(u)]) {
                char buf[128];
                std::snprintf(buf, sizeof buf,
                              "data race: T%d writes plain#%d concurrently "
                              "with a read",
                              t_self, loc);
                record_failure("race", buf);
                return;
            }
        }
        const int slot = slot_of(t_self);
        P.w_slot = slot;
        P.w_count = clk.c[static_cast<std::size_t>(slot)];
    }

    int do_register_mutex()
    {
        mutexes.emplace_back();
        return static_cast<int>(mutexes.size()) - 1;
    }

    void do_lock(int id)
    {
        if (t_self < 0) {
            return; // main context is always exclusive
        }
        sync_op({OpKind::Lock, id, std::memory_order_seq_cst});
        if (aborting) {
            return;
        }
        const int tid = t_self;
        tick(tid);
        MutexRec& m = mutexes[static_cast<std::size_t>(id)];
        m.owner = tid;
        if (m.has_rel) {
            vt[static_cast<std::size_t>(tid)].clk.join(m.rel);
        }
        append_log({tid, {OpKind::Lock, id, std::memory_order_seq_cst}, 0,
                    -1, nullptr});
    }

    void do_unlock(int id)
    {
        if (t_self < 0) {
            return;
        }
        // Unlock is deliberately NOT a scheduling point: it usually runs
        // inside std::lock_guard's destructor, which is implicitly
        // noexcept, so parking here would mean AbortExecution could be
        // thrown through a noexcept frame when the execution is torn down
        // (std::terminate). The release effect executes atomically within
        // the current slice instead -- sound, because the only way another
        // thread can observe an unlock is by acquiring the mutex, and lock
        // acquisition order is still fully explored at the blocking Lock
        // scheduling points.
        if (aborting) {
            return;
        }
        ++steps;
        const int tid = t_self;
        tick(tid);
        MutexRec& m = mutexes[static_cast<std::size_t>(id)];
        if (m.owner != tid) {
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "T%d unlocks mutex#%d it does not own", tid, id);
            fail("lock-error", buf);
        }
        m.owner = -1;
        m.rel = vt[static_cast<std::size_t>(tid)].clk;
        m.has_rel = true;
        ++store_count; // a release can unblock yielded spinners
        append_log({tid, {OpKind::Unlock, id, std::memory_order_seq_cst},
                    0, -1, nullptr});
        tick(tid); // see do_store
    }

    void do_yield()
    {
        sync_op({OpKind::Yield, -1, std::memory_order_relaxed});
        if (aborting) {
            return;
        }
        const int tid = t_self;
        VThread& t = vt[static_cast<std::size_t>(tid)];
        if (t.fresh && t.gate_count == store_count) {
            // Fresh resume made no progress: deschedule for good at this
            // state; only a new store (or deadlock detection) ends this.
            t.spent_count = store_count;
        }
        t.gate_count = store_count;
        t.fresh = false;
        append_log({tid, {OpKind::Yield, -1, std::memory_order_relaxed}, 0,
                    -1, nullptr});
    }

    [[noreturn]] void do_fence(std::memory_order mo)
    {
        fail("unsupported",
             std::string("std::atomic_thread_fence(")
                     + order_name(mo)
                     + ") is not modeled; express the protocol with "
                       "per-operation orders");
    }

    // ===================================================================
    // Execution driver
    // ===================================================================

    void abort_everyone()
    {
        aborting = true;
        for (int i = 0; i < nthreads; ++i) {
            if (!vt[static_cast<std::size_t>(i)].finished) {
                resume(i);
            }
        }
    }

    void run_one(const std::function<void(Sim&)>& setup)
    {
        ++generation;
        atomics.clear();
        plains.clear();
        mutexes.clear();
        log.clear();
        log_dropped = 0;
        store_count = 0;
        steps = 0;
        aborting = false;
        pruned_run = false;
        last_sched = -1;
        path_preempts = 0;
        replay_pos = 0;
        cur_sleep.clear();
        main_clk = VClock{};
        tick(-1);

        Sim sim;
        setup(sim);
        auto& bodies = detail::SimAccess::bodies(sim);
        nthreads = static_cast<int>(bodies.size());
        if (nthreads > k_max_threads) {
            record_failure("config",
                           "litmus registers more threads than the model "
                           "supports (max 7)");
            return;
        }
        vt.assign(static_cast<std::size_t>(nthreads), VThread{});
        for (int i = 0; i < nthreads; ++i) {
            vt[static_cast<std::size_t>(i)].body
                    = std::move(bodies[static_cast<std::size_t>(i)]);
            vt[static_cast<std::size_t>(i)].clk = main_clk;
        }
        ensure_workers(nthreads);
        parked = 0;
        for (int i = 0; i < nthreads; ++i) {
            Worker& w = *workers[static_cast<std::size_t>(i)];
            {
                std::lock_guard<std::mutex> lk(w.m);
                w.run_token = false;
                w.job = [this, i] {
                    t_self = i;
                    try {
                        sync_op({OpKind::Start, -1,
                                 std::memory_order_relaxed});
                        // Advance this thread's clock component past the
                        // fork point: accesses before the first visible op
                        // must be distinguishable from initialization.
                        tick(i);
                        vt[static_cast<std::size_t>(i)].body();
                    } catch (AbortExecution&) {
                    } catch (...) {
                        record_failure(
                                "thread-exception",
                                "a litmus thread body exited with an "
                                "uncaught exception");
                    }
                    finish_self();
                    t_self = -1;
                };
                w.has_job = true;
            }
            w.cv.notify_one();
        }
        {
            std::unique_lock<std::mutex> lk(sched_m);
            sched_cv.wait(lk, [&] { return parked == nthreads; });
        }

        schedule_loop();

        if (!res.failed && !pruned_run) {
            for (int i = 0; i < nthreads; ++i) {
                main_clk.join(vt[static_cast<std::size_t>(i)].clk);
            }
            try {
                for (const auto& check : detail::SimAccess::checks(sim)) {
                    check();
                }
            } catch (AbortExecution&) {
            }
            ++res.executions;
        }
        res.transitions += steps;
        vt.clear(); // drop body closures (and the litmus state they own)
    }

    void schedule_loop()
    {
        for (;;) {
            if (failing) {
                abort_everyone();
                return;
            }
            bool all_done = true;
            for (int i = 0; i < nthreads; ++i) {
                if (!vt[static_cast<std::size_t>(i)].finished) {
                    all_done = false;
                    break;
                }
            }
            if (all_done) {
                return;
            }
            if (++steps > opts.max_steps_per_exec) {
                record_failure("step-bound",
                               "execution exceeded the per-run step bound "
                               "(livelock, or raise "
                               "PSPL_MC_MAX_STEPS)");
                abort_everyone();
                return;
            }
            std::vector<int> enabled;
            for (int i = 0; i < nthreads; ++i) {
                if (is_enabled(i)) {
                    enabled.push_back(i);
                }
            }
            if (enabled.empty()) {
                bool granted = false;
                for (int i = 0; i < nthreads; ++i) {
                    VThread& t = vt[static_cast<std::size_t>(i)];
                    if (!t.finished && t.gate_count == store_count
                        && !t.fresh && t.spent_count != store_count) {
                        // Eventual visibility: resume the spinner once,
                        // reading the latest values deterministically.
                        t.fresh = true;
                        granted = true;
                    }
                }
                if (granted) {
                    continue;
                }
                record_failure("deadlock",
                               "no thread can make progress (all blocked "
                               "on locks or spinning on state no one will "
                               "change)");
                abort_everyone();
                return;
            }
            const int tid = choose_sched(enabled);
            if (tid < 0 || failing) {
                abort_everyone();
                return;
            }
            resume(tid);
        }
    }
};

} // namespace

// =======================================================================
// Public surface
// =======================================================================

namespace detail {

bool engine_active() noexcept
{
    return g_engine != nullptr;
}

std::uint64_t engine_generation() noexcept
{
    return g_engine != nullptr ? g_engine->generation : 0;
}

int register_atomic(std::uint64_t init, const char* name)
{
    return g_engine->do_register_atomic(init, name);
}

std::uint64_t atomic_load(int loc, std::memory_order mo)
{
    return g_engine->do_load(loc, mo);
}

void atomic_store(int loc, std::uint64_t v, std::memory_order mo)
{
    g_engine->do_store(loc, v, mo);
}

std::uint64_t atomic_rmw(int loc, std::uint64_t (*f)(std::uint64_t, void*),
                         void* ctx, std::memory_order mo)
{
    return g_engine->do_rmw(loc, f, ctx, mo);
}

bool atomic_cas(int loc, std::uint64_t& expected, std::uint64_t desired,
                std::memory_order mo)
{
    return g_engine->do_cas(loc, expected, desired, mo);
}

int register_plain(const char* /*name*/)
{
    return g_engine->do_register_plain();
}

void plain_read(int loc)
{
    g_engine->do_plain_read(loc);
}

void plain_write(int loc)
{
    g_engine->do_plain_write(loc);
}

int register_mutex()
{
    return g_engine->do_register_mutex();
}

void mutex_lock(int id)
{
    g_engine->do_lock(id);
}

void mutex_unlock(int id)
{
    g_engine->do_unlock(id);
}

void yield_point()
{
    if (t_self >= 0) {
        g_engine->do_yield();
    }
}

void fence_point(std::memory_order mo)
{
    g_engine->do_fence(mo);
}

void assert_failed(const char* expr, const char* file, int line)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "MC_ASSERT(%s) failed at %s:%d", expr,
                  file, line);
    if (g_engine != nullptr) {
        g_engine->record_failure("assert", buf);
        throw AbortExecution{};
    }
    std::fprintf(stderr, "%s (outside an exploration)\n", buf);
    std::abort();
}

std::memory_order site_order(sync::Site site, std::memory_order dflt)
{
    if (g_engine == nullptr) {
        return dflt;
    }
    const int o = g_engine->mutation_table[static_cast<std::size_t>(site)];
    return o < 0 ? dflt : static_cast<std::memory_order>(o);
}

} // namespace detail

void Sim::thread(std::function<void()> body)
{
    m_bodies.push_back(std::move(body));
}

void Sim::on_exit(std::function<void()> check)
{
    m_checks.push_back(std::move(check));
}

Options Options::from_env()
{
    Options o;
    if (const char* e = std::getenv("PSPL_MC_MAX_EXECUTIONS")) {
        o.max_executions = static_cast<std::uint64_t>(std::atoll(e));
    }
    if (const char* e = std::getenv("PSPL_MC_PREEMPTION_BOUND")) {
        o.preemption_bound = std::atoi(e);
    }
    if (const char* e = std::getenv("PSPL_MC_NO_SLEEP_SETS")) {
        o.sleep_sets = e[0] == '\0' || e[0] == '0';
    }
    if (const char* e = std::getenv("PSPL_MC_MAX_STEPS")) {
        o.max_steps_per_exec = static_cast<std::uint64_t>(std::atoll(e));
    }
    return o;
}

Result explore(const std::function<void(Sim&)>& setup, Options opts)
{
    static std::mutex g_explore_mutex;
    std::lock_guard<std::mutex> serialize(g_explore_mutex);

    const CallerCpuPin pin;
    Engine engine(std::move(opts));
    g_engine = &engine;
    for (;;) {
        engine.run_one(setup);
        if (engine.res.failed) {
            break;
        }
        if (engine.opts.max_executions != 0
            && engine.res.executions >= engine.opts.max_executions) {
            engine.res.hit_execution_bound = true;
            break;
        }
        if (!engine.backtrack()) {
            break;
        }
    }
    engine.shutdown_pool();
    g_engine = nullptr;
    return engine.res;
}

} // namespace pspl::mc
