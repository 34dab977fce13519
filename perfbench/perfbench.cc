/**
 * @file
 * The reproduction benchmark's driver: runs one workload of the
 * paper's pipeline (miss sweep, performance sweep, GA search or
 * shared-LLC sweep) through the library's public calls, times it end
 * to end and, with --trace 1, layer by layer.
 *
 *   perfbench --workload <miss_sweep|perf_sweep|ga_search|shared_llc>
 *             --seed <n> --seconds <s> --trace <0|1> [--ga-seed <n>]
 *             [--out <dir>]
 *
 * A run first starts several fresh processes of itself that only set
 * the workload up (setup_s is their median launch-to-ready time), sets
 * it up once itself, then repeats the workload, each repetition cold
 * (fresh trace cache, fresh fitness memo), until --seconds have
 * passed.  Untraced repetitions give the end-to-end metrics, reported
 * with the median host speed a probe thread saw meanwhile.  With
 * --trace 1, traced repetitions alternate with untraced ones.  A
 * traced repetition makes the same library calls with the library's
 * own hooks attached (a forwarding replay engine, forwarding scalar
 * policies, the phase taps) and records a span (name, start, end,
 * parent, workload item, thread CPU) per hooked call, keeping the
 * spans in memory and writing them to <out>/spans-*.json at exit.
 *
 * After timing, a fixed sample of the last repetition's stored result
 * is recomputed through the independent scalar references and compared
 * exactly; mismatches count into error_rate.  Every simulated statistic
 * of a repetition is folded into one digest, which must repeat across
 * repetitions and between traced and untraced runs.  A self-test nudges
 * one stored value and requires both comparisons to catch it.
 *
 * The last stdout line is one JSON object with every metric by name
 * and value; units live in BENCHMARK.json.  All times are host time,
 * with the host's speed as host.speed; simulated metrics come from an
 * unvalidated model.
 */

#include <cpuid.h>
#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/replay.hh"
#include "core/vectors.hh"
#include "ga/fitness.hh"
#include "ga/genetic.hh"
#include "policies/belady.hh"
#include "sim/experiment.hh"
#include "sim/fastpath/engine.hh"
#include "sim/multicore/engine.hh"
#include "sim/system.hh"
#include "sim/trace_cache.hh"
#include "telemetry/metrics.hh"
#include "telemetry/timer.hh"
#include "util/parallel.hh"
#include "util/stats.hh"
#include "workloads/suite.hh"

extern char **environ;

using namespace gippr;

namespace
{

// ---------------------------------------------------------------- clocks

const std::chrono::steady_clock::time_point kStart =
    std::chrono::steady_clock::now();

double
wallNow()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         kStart)
        .count();
}

double
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Process user + system CPU seconds. */
double
processCpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** CPUs this process may run on (what nproc prints). */
unsigned
hostThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------- host speed

/**
 * The host-speed probe.  On a shared host the CPU time a fixed piece
 * of work takes drifts with the load of the host's other tenants: by up
 * to 2x over minutes, alike for all four workloads.  No statistic taken within one run can undo a
 * drift that outlasts it.  So while a run goes on, a thread of its own
 * times a short fixed kernel that does not touch the library, a few
 * times a second, and the run reports its host times together with the
 * median speed the kernel saw.
 *
 * The kernel is a dependent chain of integer shifts, multiplies and a
 * data-dependent branch in registers.  It touches no memory, so what it
 * sees is the speed of the core it gets, not the state of the caches
 * the workload left.  kProbeReferenceCpu is its CPU time on the
 * reference host, a 4-vCPU Xeon VM (2.1 GHz, AVX-512).
 */
constexpr uint64_t kProbeSteps = uint64_t{1} << 20;
constexpr double kProbeReferenceCpu = 3.3e-3;
/** Seconds between probes. */
constexpr double kProbeEvery = 0.2;

/** One run of the probe kernel; returns its CPU seconds. */
double
probeKernel(uint64_t &state)
{
    uint64_t x = state;
    uint64_t acc = 1;
    const double c0 = threadCpuNow();
    // The loop touches no memory, so without these barriers the
    // compiler may move it out from between the two clock reads.
    asm volatile("" : "+r"(x), "+r"(acc) : : "memory");
    for (uint64_t step = 0; step < kProbeSteps; ++step) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc * 0x9e3779b97f4a7c15ull + (x >> 3);
        if (acc & 1)
            acc ^= step;
    }
    asm volatile("" : "+r"(x), "+r"(acc) : : "memory");
    const double cpu = threadCpuNow() - c0;
    state = x ^ acc;
    return cpu;
}

/**
 * Probes the host's speed on a thread of its own from construction to
 * stop().  A speed is kProbeReferenceCpu over the probe's CPU time: 1
 * at the reference speed, 0.5 on a host running at half of it.
 */
class HostSpeedSampler
{
  public:
    HostSpeedSampler() : thread_([this] { loop(); }) {}
    ~HostSpeedSampler() { stop(); }

    /** Ends the sampling; returns every speed seen. */
    std::vector<double>
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stopping_ = true;
        }
        wake_.notify_all();
        if (thread_.joinable())
            thread_.join();
        return speeds_;
    }

  private:
    void
    loop()
    {
        uint64_t state = 0x9e3779b97f4a7c15ull;
        // At least one probe, however soon stop() comes.
        std::unique_lock<std::mutex> lock(mu_);
        do {
            lock.unlock();
            const double cpu = probeKernel(state);
            lock.lock();
            speeds_.push_back(kProbeReferenceCpu / cpu);
        } while (!wake_.wait_for(lock,
                                 std::chrono::duration<double>(kProbeEvery),
                                 [this] { return stopping_; }));
    }

    std::mutex mu_;
    std::condition_variable wake_;
    bool stopping_ = false;
    std::vector<double> speeds_;
    std::thread thread_;
};

// ---------------------------------------------------------------- tracing

/** One closed span.  cpu is the CPU time of the thread it ran on. */
struct Span
{
    int id = 0;
    int parent = -1;
    std::string name;
    std::string item;
    uint64_t thread = 0;
    double start = 0.0;
    double end = 0.0;
    double cpu = 0.0;
    /** Input units processed (CPU refs, LLC accesses, genome x access). */
    uint64_t work = 0;
    /** Output units (filtered LLC records), where a layer has them. */
    uint64_t out = 0;
    /** Policy or GA family the call ran, where a layer has one. */
    std::string policy;
    /** traceKey of the trace a replay call read (for labelling). */
    uint64_t trace = 0;
    /** Placed from a library phase tap rather than timed directly. */
    bool derived = false;

    double wall() const { return end - start; }
};

/**
 * In-memory span store.  Parents come from the opening thread's stack
 * of open spans; a thread with none (a library worker) falls back to
 * the context span the orchestrating thread published.
 */
class Tracer
{
  public:
    int
    open()
    {
        return next_.fetch_add(1);
    }

    int
    parentForThisThread() const
    {
        return stack().empty() ? context_.load() : stack().back();
    }

    void push(int id) { stack().push_back(id); }
    void pop() { stack().pop_back(); }
    void setContext(int id) { context_.store(id); }
    int context() const { return context_.load(); }

    void
    close(Span span)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(span));
    }

    std::vector<Span>
    take()
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<Span> out;
        out.swap(spans_);
        return out;
    }

  private:
    static std::vector<int> &
    stack()
    {
        thread_local std::vector<int> s;
        return s;
    }

    std::atomic<int> next_{0};
    std::atomic<int> context_{-1};
    std::mutex mu_;
    std::vector<Span> spans_;
};

uint64_t
threadTag()
{
    static std::atomic<uint64_t> next{0};
    thread_local uint64_t tag = next.fetch_add(1);
    return tag;
}

/**
 * RAII span around one layer call; a no-op without a tracer.  With
 * @p adopt, library worker threads started inside the span parent
 * their spans to it.
 */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, const char *name, std::string item = {},
              bool adopt = false)
        : tracer_(tracer)
    {
        if (!tracer_)
            return;
        span_.id = tracer_->open();
        span_.parent = tracer_->parentForThisThread();
        span_.name = name;
        span_.item = std::move(item);
        span_.thread = threadTag();
        tracer_->push(span_.id);
        if (adopt) {
            prevContext_ = tracer_->context();
            tracer_->setContext(span_.id);
            adopted_ = true;
        }
        cpu0_ = threadCpuNow();
        span_.start = wallNow();
    }

    ~SpanScope() { close(); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    void addWork(uint64_t work, uint64_t out = 0)
    {
        span_.work += work;
        span_.out += out;
    }

    /** Close now (idempotent; a no-op when untraced). */
    void
    close()
    {
        if (!tracer_ || closed_)
            return;
        span_.end = wallNow();
        span_.cpu = threadCpuNow() - cpu0_;
        closed_ = true;
        tracer_->pop();
        if (adopted_)
            tracer_->setContext(prevContext_);
        tracer_->close(span_);
    }

    const Span &span() const { return span_; }
    Span &span() { return span_; }

  private:
    Tracer *tracer_;
    Span span_;
    double cpu0_ = 0.0;
    int prevContext_ = -1;
    bool adopted_ = false;
    bool closed_ = false;
};

/**
 * Children of a closed span whose time only a library phase tap knows
 * (LlcTraceCache::get's "materialize" / "llc_filter"): laid out back
 * to back from the parent's start, CPU split in proportion to wall.
 */
void
addTapChildren(Tracer *tracer, const Span &parent,
               const std::vector<std::pair<const char *, double>> &taps,
               const std::vector<std::pair<uint64_t, uint64_t>> &work)
{
    if (!tracer)
        return;
    double t = parent.start;
    const double scale =
        parent.wall() > 0.0 ? parent.cpu / parent.wall() : 1.0;
    for (size_t i = 0; i < taps.size(); ++i) {
        Span s;
        s.id = tracer->open();
        s.parent = parent.id;
        s.name = taps[i].first;
        s.item = parent.item;
        s.thread = parent.thread;
        s.start = t;
        s.end = t + taps[i].second;
        s.cpu = taps[i].second * scale;
        s.work = work[i].first;
        s.out = work[i].second;
        s.derived = true;
        t = s.end;
        tracer->close(std::move(s));
    }
}

/** Thread tag of spans summed from a library tap over many threads. */
constexpr uint64_t kTapThread = ~uint64_t{0};

/**
 * A span whose time only a library phase tap knows, summed over the
 * pool's threads.  Its CPU is the tap's wall time scaled by
 * @p cpu_per_wall, the ratio the same workers showed on their hooked
 * spans.
 */
void
addTapSpan(Tracer *tracer, const char *name, double start, double seconds,
           double cpu_per_wall, uint64_t work, uint64_t out = 0)
{
    Span s;
    s.id = tracer->open();
    s.parent = tracer->context();
    s.name = name;
    s.thread = kTapThread;
    s.start = start;
    s.end = start + seconds;
    s.cpu = seconds * cpu_per_wall;
    s.work = work;
    s.out = out;
    s.derived = true;
    tracer->close(std::move(s));
}

/** CPU per wall second of the @p spans named in @p names (1 if none). */
double
cpuPerWall(const std::vector<Span> &spans,
           std::initializer_list<const char *> names)
{
    double cpu = 0.0, wall = 0.0;
    for (const Span &s : spans)
        for (const char *n : names)
            if (s.name == n) {
                cpu += s.cpu;
                wall += s.wall();
            }
    return wall > 0.0 ? cpu / wall : 1.0;
}

/**
 * Pool items recovered from a repetition's layer spans: on each
 * worker, a run of spans with the same item label is one item, lasting
 * from the end of the worker's previous item (or @p start) to its own
 * last span.  Added as derived "parallel.item" spans with no CPU.
 */
void
addItemSpans(Tracer *tracer, const std::vector<Span> &spans, double start)
{
    std::map<uint64_t, std::vector<const Span *>> by_thread;
    for (const Span &s : spans)
        if (s.thread != kTapThread && !s.item.empty())
            by_thread[s.thread].push_back(&s);
    for (auto &[thread, list] : by_thread) {
        std::sort(list.begin(), list.end(),
                  [](const Span *a, const Span *b) {
                      return a->start < b->start;
                  });
        double begin = start;
        for (size_t i = 0; i < list.size(); ++i) {
            if (i + 1 < list.size() && list[i + 1]->item == list[i]->item)
                continue;
            Span s;
            s.id = tracer->open();
            s.parent = tracer->context();
            s.name = "parallel.item";
            s.item = list[i]->item;
            s.thread = thread;
            s.start = begin;
            s.end = list[i]->end;
            s.derived = true;
            begin = s.end;
            tracer->close(std::move(s));
        }
    }
}

/** Identifies a trace by its length and three sampled addresses. */
uint64_t
traceKey(const TraceSource &trace)
{
    const size_t n = trace.size();
    if (n == 0)
        return 0;
    uint64_t key = n;
    for (size_t i : {size_t{0}, n / 2, n - 1})
        key = key * 0x100000001b3ULL ^ trace[i].addr;
    return key;
}

/** Forwards to the default engine, with a span per replay call. */
class TracedEngine : public fastpath::ReplayEngine
{
  public:
    explicit TracedEngine(Tracer *tracer) : tracer_(tracer) {}

    fastpath::ReplayStats
    replay(const fastpath::ReplaySpec &spec, const CacheConfig &config,
           const TraceSource &trace, size_t warmup) const override
    {
        SpanScope span(tracer_, "fastpath.replay");
        span.addWork(trace.size());
        span.span().policy = familyOf(spec);
        span.span().trace = traceKey(trace);
        return inner().replay(spec, config, trace, warmup);
    }

    std::vector<fastpath::ReplayStats>
    replayMany(std::span<const fastpath::ReplaySpec> specs,
               const CacheConfig &config, const TraceSource &trace,
               size_t warmup) const override
    {
        SpanScope span(tracer_, "fastpath.batch");
        span.addWork(trace.size() * specs.size());
        span.span().policy = specs.empty() ? "" : familyOf(specs[0]);
        return inner().replayMany(specs, config, trace, warmup);
    }

    std::string name() const override { return inner().name(); }

  private:
    static const fastpath::ReplayEngine &
    inner()
    {
        return fastpath::defaultReplayEngine();
    }

    static std::string
    familyOf(const fastpath::ReplaySpec &spec)
    {
        switch (spec.kind) {
          case fastpath::FastPolicyKind::Giplr:
            return "giplr";
          case fastpath::FastPolicyKind::Gippr:
            return "gippr";
          default:
            return spec.name();
        }
    }

    Tracer *tracer_;
};

/**
 * Forwards to a scalar policy and spans its lifetime.  The library
 * builds one policy per simulated cache and drops it when that replay
 * or simulation ends, so the span times the library's own call.  The
 * accesses it saw (hits + misses) are the span's work.
 */
class SpannedPolicy : public ReplacementPolicy
{
  public:
    SpannedPolicy(Tracer *tracer, const char *layer, const std::string &policy,
                  std::unique_ptr<ReplacementPolicy> inner)
        : span_(tracer, layer), inner_(std::move(inner))
    {
        span_.span().policy = policy;
    }

    ~SpannedPolicy() override
    {
        inner_.reset();
        span_.addWork(accesses_);
        span_.close();
    }

    unsigned victim(const AccessInfo &info) override
    {
        return inner_->victim(info);
    }
    void
    onMiss(const AccessInfo &info) override
    {
        ++accesses_;
        inner_->onMiss(info);
    }
    bool shouldBypass(const AccessInfo &info) override
    {
        return inner_->shouldBypass(info);
    }
    void onInsert(unsigned way, const AccessInfo &info) override
    {
        inner_->onInsert(way, info);
    }
    void
    onHit(unsigned way, const AccessInfo &info) override
    {
        ++accesses_;
        inner_->onHit(way, info);
    }
    void onInvalidate(uint64_t set, unsigned way) override
    {
        inner_->onInvalidate(set, way);
    }
    std::string name() const override { return inner_->name(); }
    size_t stateBitsPerSet() const override
    {
        return inner_->stateBitsPerSet();
    }
    size_t globalStateBits() const override
    {
        return inner_->globalStateBits();
    }
    void attachTelemetry(telemetry::MetricRegistry &registry,
                         const std::string &prefix) override
    {
        inner_->attachTelemetry(registry, prefix);
    }

  private:
    SpanScope span_;
    std::unique_ptr<ReplacementPolicy> inner_;
    uint64_t accesses_ = 0;
};

/**
 * @p policies with each scalar factory (every one when @p all) wrapped
 * in a SpannedPolicy recording @p layer spans.
 */
std::vector<PolicyDef>
spannedPolicies(Tracer *tracer, const char *layer,
                const std::vector<PolicyDef> &policies, bool all)
{
    std::vector<PolicyDef> out = policies;
    for (PolicyDef &p : out) {
        if (p.fastSpec && !all)
            continue;
        p.make = [tracer, layer, name = p.name,
                  inner = p.make](const CacheConfig &config) {
            return std::unique_ptr<ReplacementPolicy>(
                std::make_unique<SpannedPolicy>(tracer, layer, name,
                                                inner(config)));
        };
    }
    return out;
}

// ---------------------------------------------------------------- digest

/** FNV-1a over every simulated statistic of a repetition. */
class Digest
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    void
    add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }
    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
        add(uint64_t{s.size()});
    }
    void
    add(const Ipv &ipv)
    {
        for (uint8_t e : ipv.entries())
            add(uint64_t{e});
    }
    void
    add(const fastpath::CounterBank &b)
    {
        for (uint64_t v : {b.accesses, b.hits, b.misses, b.evictions,
                           b.writebacks, b.demandAccesses, b.demandMisses})
            add(v);
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

// ---------------------------------------------------------------- checks

/** Exact comparisons of timed results against reference recomputation. */
struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;

    void
    expect(const std::string &what, double timed, double reference)
    {
        ++attempted;
        if (timed == reference)
            return;
        ++failed;
        char buf[256];
        std::snprintf(buf, sizeof(buf), "%s: timed %.17g, reference %.17g",
                      what.c_str(), timed, reference);
        failures.push_back(buf);
    }
};

/**
 * One checked cell: its reference recomputation, a reader of the timed
 * value stored in the workload's last result, and (for the self-test)
 * a way to nudge that stored value.
 */
struct CheckCell
{
    std::string what;
    std::function<double()> timed;
    double reference = 0.0;
    std::function<void()> perturb;
};

/** Nudges a stored result value by one ulp. */
std::function<void()>
nudge(double &slot)
{
    return [&slot] { slot = std::nextafter(slot, INFINITY); };
}

// ---------------------------------------------------------------- config

/** The quick-scale suite at the bench LLC (1 MB, 16-way). */
SuiteParams
suiteParams(uint64_t seed)
{
    SuiteParams p;
    p.llcBlocks = 16384;
    p.accessesPerSimpoint = 300'000;
    p.baseSeed = seed;
    return p;
}

/** 32 KB L1, 256 KB L2, 1 MB 16-way LLC; warm on the first third. */
SystemParams
systemParams()
{
    SystemParams p;
    p.hier.l1 = CacheConfig::paperL1d();
    p.hier.l2 = CacheConfig::paperL2();
    p.hier.llc = CacheConfig::benchLlc();
    return p;
}

/** Fig 10 and Fig 11 policy sets, united (MIN is added by the harness). */
std::vector<PolicyDef>
missPolicies()
{
    return {
        policyByName("LRU"),
        gipprDef("GIPPR", local_vectors::gippr()),
        dgipprDef("2-DGIPPR", local_vectors::dgippr2()),
        dgipprDef("4-DGIPPR", local_vectors::dgippr4()),
        policyByName("DRRIP"),
        policyByName("PDP"),
    };
}

/** Fig 13 policy set. */
std::vector<PolicyDef>
perfPolicies()
{
    return {
        policyByName("LRU"),
        policyByName("DRRIP"),
        policyByName("PDP"),
        dgipprDef("4-DGIPPR", local_vectors::dgippr4()),
    };
}

struct Options
{
    std::string workload;
    /** Suite baseSeed: the workload inputs. */
    uint64_t seed = 1;
    /**
     * GA RNG seed.  It stays fixed while --seed varies the suite: the
     * GA seed alone moves a search's distinct-genome count (and so its
     * host time) by up to 18%, the suite seed by about 1%.
     */
    uint64_t gaSeed = 12345;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_out";
    /** Set-up child: build the inputs, write one byte here, exit. */
    int readyFd = -1;
};

// ---------------------------------------------------------------- metrics

using MetricMap = std::map<std::string, double>;

/** Self CPU per span: own thread CPU minus same-thread children. */
std::vector<double>
selfCpu(const std::vector<Span> &spans)
{
    std::map<int, size_t> index;
    for (size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].cpu;
    for (const Span &s : spans) {
        auto it = index.find(s.parent);
        if (it != index.end() && spans[it->second].thread == s.thread)
            self[it->second] -= s.cpu;
    }
    for (double &v : self)
        v = std::max(v, 0.0);
    return self;
}

/** Per-name totals over a span list. */
struct LayerTotals
{
    std::map<std::string, double> self;
    std::map<std::string, uint64_t> work, out;

    explicit LayerTotals(const std::vector<Span> &spans)
    {
        const std::vector<double> s = selfCpu(spans);
        for (size_t i = 0; i < spans.size(); ++i) {
            std::string key = spans[i].name;
            if (key == "fastpath.batch")
                key += "." + spans[i].policy;
            self[key] += s[i];
            work[key] += spans[i].work;
            out[key] += spans[i].out;
        }
    }

    double
    rate(const std::string &key) const
    {
        auto t = self.find(key);
        auto w = work.find(key);
        if (t == self.end() || w == work.end() || t->second <= 0.0)
            return 0.0;
        return static_cast<double>(w->second) / t->second / 1e6;
    }
    double get(const std::map<std::string, double> &m,
               const std::string &k) const
    {
        auto it = m.find(k);
        return it == m.end() ? 0.0 : it->second;
    }
};

double
percentileOf(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    return percentile(std::move(v), pct);
}

// ---------------------------------------------------------------- workloads

/** What one repetition of a workload produced. */
struct RepResult
{
    double wall = 0.0;
    double cpu = 0.0;
    uint64_t digest = 0;
    /** Workload-level outputs (simulated metrics, genomes/s). */
    MetricMap outputs;
    /** Library counters and taps read after the repetition. */
    MetricMap counters;
    /** Layer spans of a traced repetition. */
    std::vector<Span> spans;
    /** Spans of the untimed probe after it (not in the attribution). */
    std::vector<Span> probeSpans;
};

class BenchWorkload
{
  public:
    BenchWorkload(uint64_t seed, uint64_t ga_seed, unsigned threads)
        : seed_(seed), gaSeed_(ga_seed), threads_(threads),
          suite_(suiteParams(seed)),
          sys_(systemParams())
    {
    }
    virtual ~BenchWorkload() = default;

    /** Build the inputs a repetition consumes (timed as setup_s). */
    virtual void setup(Tracer *tracer) = 0;
    /**
     * One cold repetition, kept as the last result; spans go to
     * @p tracer when non-null.
     */
    virtual void run(Tracer *tracer, RepResult &out) = 0;
    /** Untimed extra measurements after a traced repetition. */
    virtual void probe(Tracer *, RepResult &) {}
    /** Digest of every simulated statistic of the last result. */
    virtual uint64_t digest() const = 0;
    /** A fixed sample of the last result, recomputed on references. */
    virtual std::vector<CheckCell> check() = 0;
    /** Spans recorded by the last traced setup. */
    std::vector<Span> setupSpans;
    MetricMap setupCounters;

  protected:
    uint64_t seed_;
    uint64_t gaSeed_;
    unsigned threads_;
    SyntheticSuite suite_;
    SystemParams sys_;
};

/** Measured-region instructions of one LLC trace entry (missRowFor). */
uint64_t
measuredInstructions(uint64_t instructions, double warmup_fraction)
{
    uint64_t inst = static_cast<uint64_t>(
        static_cast<double>(instructions) * (1.0 - warmup_fraction));
    return inst == 0 ? 1 : inst;
}

size_t
warmupOf(size_t length, double warmup_fraction)
{
    return static_cast<size_t>(static_cast<double>(length) *
                               warmup_fraction);
}

/** CPU references the suite's simpoints generate. */
uint64_t
suiteRefs(const SyntheticSuite &suite)
{
    uint64_t refs = 0;
    for (const WorkloadSpec &spec : suite.specs())
        for (const SimpointSpec &sp : spec.simpoints)
            refs += sp.accesses;
    return refs;
}

/**
 * LlcTraceCache::get with a span; its materialize/llc_filter taps
 * become derived children.
 */
std::shared_ptr<const LlcTraceCache::Entries>
tracedGet(Tracer *tracer, LlcTraceCache &cache, const WorkloadSpec &spec,
          const HierarchyConfig &hier)
{
    telemetry::PhaseTimings taps;
    SpanScope span(tracer, "trace_cache.get", spec.name);
    auto entries = cache.get(spec, hier, tracer ? &taps : nullptr);
    span.close();
    if (tracer && taps.seconds("materialize") > 0.0) {
        uint64_t refs = 0, llc = 0;
        for (const SimpointSpec &sp : spec.simpoints)
            refs += sp.accesses;
        for (const LlcTraceCache::Entry &e : *entries)
            llc += e.demandTrace->size();
        addTapChildren(tracer, span.span(),
                       {{"workloads.materialize", taps.seconds("materialize")},
                        {"cache.filter", taps.seconds("llc_filter")}},
                       {{refs, 0}, {refs, llc}});
    }
    return entries;
}

void
digestResult(Digest &d, const ExperimentResult &r)
{
    d.add(r.metric);
    for (const std::string &c : r.columns)
        d.add(c);
    for (const WorkloadRow &row : r.rows) {
        d.add(row.workload);
        for (double v : row.values)
            d.add(v);
    }
}

// ---- miss_sweep ----------------------------------------------------

/**
 * runMissExperiment over the union of the Fig 10 and Fig 11 policies
 * plus MIN: materialize and L1/L2 filter dominate, GA code is bypassed.
 * A traced repetition makes the same call with the library's hooks
 * attached: a span-recording replay engine, spanned scalar policies
 * and the phase taps.
 */
class MissSweep : public BenchWorkload
{
  public:
    using BenchWorkload::BenchWorkload;

    void
    setup(Tracer *) override
    {
        suite_ = SyntheticSuite(suiteParams(seed_));
        policies_ = missPolicies();
    }

    void
    run(Tracer *tracer, RepResult &out) override
    {
        LlcTraceCache cache;
        telemetry::PhaseTimings taps;
        const TracedEngine traced(tracer);
        ExperimentConfig cfg;
        cfg.system = sys_;
        cfg.threads = threads_;
        cfg.includeMin = true;
        cfg.replayEngine = &fastpath::defaultReplayEngine();
        cfg.traceCache = &cache;
        const double start = wallNow();
        if (tracer) {
            cfg.replayEngine = &traced;
            cfg.timings = &taps;
            last_ = runMissExperiment(
                suite_,
                spannedPolicies(tracer, "policies.scalar_replay", policies_,
                                false),
                cfg);
        } else {
            last_ = runMissExperiment(suite_, policies_, cfg);
        }
        out.outputs["mpki_ratio_4dgippr"] = last_.geomeanNormalized(
            last_.columnIndex("4-DGIPPR"), last_.columnIndex("LRU"), false);
        out.counters["trace_cache.hits"] =
            static_cast<double>(cache.hits());
        out.counters["trace_cache.misses"] =
            static_cast<double>(cache.misses());
        if (tracer)
            attribute(tracer, cache, taps, start);
    }

    uint64_t
    digest() const override
    {
        Digest d;
        digestResult(d, last_);
        return d.value();
    }

    std::vector<CheckCell>
    check() override
    {
        // Fixed sample: five workloads spread over the suite, each
        // with two of the seven columns, so every column is covered.
        const fastpath::ScalarReplayEngine scalar;
        LlcTraceCache cache;
        std::vector<CheckCell> cells;
        const size_t n = suite_.specs().size();
        const size_t cols = last_.columns.size();
        for (size_t k = 0; k < 5; ++k) {
            const size_t w = k * (n - 1) / 4;
            const WorkloadSpec &spec = suite_.specs()[w];
            auto entries = cache.get(spec, sys_.hier, nullptr);
            for (size_t c : {(2 * k) % cols, (2 * k + 1) % cols}) {
                std::vector<double> mpki, weights;
                for (const LlcTraceCache::Entry &e : *entries) {
                    const Trace &t = *e.demandTrace;
                    const size_t warm =
                        warmupOf(t.size(), sys_.warmupFraction);
                    uint64_t misses = 0;
                    if (c == policies_.size()) {
                        misses = runMinMisses(sys_.hier.llc, t, warm);
                    } else if (policies_[c].fastSpec) {
                        misses = scalar
                                     .replay(*policies_[c].fastSpec,
                                             sys_.hier.llc, t, warm)
                                     .measured.demandMisses;
                    } else {
                        SetAssocCache llc(sys_.hier.llc,
                                          policies_[c].make(sys_.hier.llc));
                        replayTrace(llc, t, warm);
                        misses = llc.stats().demandMisses;
                    }
                    mpki.push_back(
                        1000.0 * static_cast<double>(misses) /
                        static_cast<double>(measuredInstructions(
                            e.instructions, sys_.warmupFraction)));
                    weights.push_back(e.weight);
                }
                double &timed = last_.rows[w].values[c];
                cells.push_back({"mpki " + spec.name + " " +
                                     last_.columns[c],
                                 [&timed] { return timed; },
                                 weightedMean(mpki, weights), nudge(timed)});
            }
        }
        return cells;
    }

  private:
    /**
     * Labels the repetition's replay spans with their workload and adds
     * what only the taps know: the trace build (materialize, filter)
     * and MIN, which is the rest of each simpoint's "replay" tap once
     * the policy replays are taken out.
     */
    void
    attribute(Tracer *tracer, LlcTraceCache &cache,
              const telemetry::PhaseTimings &taps, double start)
    {
        // Each filtered trace -> its workload.
        std::map<uint64_t, std::string> owner;
        uint64_t llc = 0;
        for (const WorkloadSpec &spec : suite_.specs()) {
            for (const LlcTraceCache::Entry &e :
                 *cache.get(spec, sys_.hier, nullptr)) {
                llc += e.demandTrace->size();
                owner[traceKey(*e.demandTrace)] = spec.name;
            }
        }
        std::vector<Span> spans = tracer->take();
        std::sort(spans.begin(), spans.end(),
                  [](const Span &a, const Span &b) {
                      return a.start < b.start;
                  });
        // A scalar replay follows its simpoint's fast replays on the
        // same worker (fast policies come first in the list).
        std::map<uint64_t, std::string> current;
        double replayed = 0.0;
        for (Span &s : spans) {
            if (s.name == "fastpath.replay") {
                s.item = owner[s.trace];
                current[s.thread] = s.item;
            } else if (s.name == "policies.scalar_replay") {
                s.item = current[s.thread];
            } else {
                continue;
            }
            replayed += s.wall();
        }
        const double scale =
            cpuPerWall(spans, {"fastpath.replay", "policies.scalar_replay"});
        addItemSpans(tracer, spans, start);
        for (Span &s : spans)
            tracer->close(std::move(s));
        const uint64_t refs = suiteRefs(suite_);
        addTapSpan(tracer, "workloads.materialize", start,
                   taps.seconds("materialize"), scale, refs);
        addTapSpan(tracer, "cache.filter", start, taps.seconds("llc_filter"),
                   scale, refs, llc);
        addTapSpan(tracer, "policies.min", start,
                   std::max(0.0, taps.seconds("replay") - replayed), scale,
                   llc);
    }

    std::vector<PolicyDef> policies_;
    ExperimentResult last_;
};

// ---- perf_sweep ----------------------------------------------------

/**
 * runPerfExperiment over the Fig 13 policies: full-system simulation
 * re-runs L1/L2 per policy; the fast engine and trace cache are
 * bypassed.  A traced repetition makes the same call with spanned LLC
 * policies (one span per simulateTrace) and the phase taps.
 */
class PerfSweep : public BenchWorkload
{
  public:
    using BenchWorkload::BenchWorkload;

    void
    setup(Tracer *) override
    {
        suite_ = SyntheticSuite(suiteParams(seed_));
        policies_ = perfPolicies();
    }

    void
    run(Tracer *tracer, RepResult &out) override
    {
        telemetry::PhaseTimings taps;
        ExperimentConfig cfg;
        cfg.system = sys_;
        cfg.threads = threads_;
        const double start = wallNow();
        if (tracer) {
            cfg.timings = &taps;
            last_ = runPerfExperiment(
                suite_,
                spannedPolicies(tracer, "sim.simulate", policies_, true),
                cfg);
            attribute(tracer, taps, start);
        } else {
            last_ = runPerfExperiment(suite_, policies_, cfg);
        }
        out.outputs["speedup_4dgippr"] = last_.geomeanNormalized(
            last_.columnIndex("4-DGIPPR"), last_.columnIndex("LRU"), true);
    }

    /**
     * The L1/L2 filter alone on the same traces, once per workload:
     * the part of every simulateWorkload call that does not depend on
     * the LLC policy.
     */
    void
    probe(Tracer *tracer, RepResult &out) override
    {
        std::atomic<uint64_t> instructions{0};
        parallelFor(suite_.specs().size(), threads_, [&](size_t i) {
            const Workload wl =
                SyntheticSuite::materialize(suite_.specs()[i]);
            for (const Simpoint &sp : wl.simpoints()) {
                instructions += sp.trace->instructions();
                SpanScope s(tracer, "sim.l1l2", wl.name());
                const Trace llc = Hierarchy::filterToLlc(
                    *sp.trace, sys_.hier, lruFactory(), lruFactory());
                s.addWork(sp.trace->size(), llc.size());
            }
        });
        out.counters["sim.instructions"] =
            static_cast<double>(instructions.load() * policies_.size());
    }

    uint64_t
    digest() const override
    {
        Digest d;
        digestResult(d, last_);
        return d.value();
    }

    std::vector<CheckCell>
    check() override
    {
        // Four (workload, policy) cells re-simulated serially, outside
        // the worker pool.
        std::vector<CheckCell> cells;
        const size_t n = suite_.specs().size();
        for (size_t k = 0; k < 4; ++k) {
            const size_t w = (k * 7 + 3) % n;
            const size_t p = k % policies_.size();
            const WorkloadSpec &spec = suite_.specs()[w];
            const Workload wl = SyntheticSuite::materialize(spec);
            const SimResult sr =
                simulateWorkload(wl, policies_[p].make, sys_);
            double &timed = last_.rows[w].values[p];
            cells.push_back({"ipc " + spec.name + " " + policies_[p].name,
                             [&timed] { return timed; }, sr.ipc,
                             nudge(timed)});
        }
        return cells;
    }

  private:
    /**
     * Groups the simulate spans into the pool's items and adds the
     * materialize tap.  A worker runs each item's policies in list
     * order, so an item ends where the policy position drops.
     */
    void
    attribute(Tracer *tracer, const telemetry::PhaseTimings &taps,
              double start)
    {
        std::vector<Span> spans = tracer->take();
        std::sort(spans.begin(), spans.end(),
                  [](const Span &a, const Span &b) {
                      return a.start < b.start;
                  });
        std::map<uint64_t, std::pair<size_t, size_t>> state; // pos, item
        for (Span &s : spans) {
            if (s.name != "sim.simulate")
                continue;
            size_t pos = 0;
            while (pos < policies_.size() && policies_[pos].name != s.policy)
                ++pos;
            auto it = state.find(s.thread);
            if (it == state.end())
                it = state.emplace(s.thread, std::make_pair(pos, 0)).first;
            else if (pos < it->second.first)
                ++it->second.second;
            it->second.first = pos;
            s.item = "worker" + std::to_string(s.thread) + ".item" +
                     std::to_string(it->second.second);
        }
        const double scale = cpuPerWall(spans, {"sim.simulate"});
        addItemSpans(tracer, spans, start);
        for (Span &s : spans)
            tracer->close(std::move(s));
        addTapSpan(tracer, "workloads.materialize", start,
                   taps.seconds("materialize"), scale, suiteRefs(suite_));
    }

    std::vector<PolicyDef> policies_;
    ExperimentResult last_;
};

// ---- ga_search -----------------------------------------------------

/** bench::resolveScale's quick GA parameters, pool sized to the host. */
GaParams
gaParams(uint64_t seed, unsigned threads, telemetry::PhaseTimings *taps)
{
    GaParams p;
    p.initialPopulation = 48;
    p.population = 24;
    p.generations = 5;
    p.threads = threads;
    p.seed = seed;
    p.timings = taps;
    return p;
}

/**
 * evolveIpv for GIPLR, then GIPPR, then a 4-vector selectDuelSet over
 * the suite's filtered traces; replayMany, its kernel and the memo
 * dominate.
 */
class GaSearch : public BenchWorkload
{
  public:
    using BenchWorkload::BenchWorkload;

    void
    setup(Tracer *tracer) override
    {
        suite_ = SyntheticSuite(suiteParams(seed_));
        traces_.clear();
        setupCounters.clear();
        LlcTraceCache cache;
        const auto &specs = suite_.specs();
        std::vector<std::shared_ptr<const LlcTraceCache::Entries>> got(
            specs.size());
        parallelFor(specs.size(), threads_, [&](size_t i) {
            got[i] = tracedGet(tracer, cache, specs[i], sys_.hier);
        });
        for (size_t i = 0; i < specs.size(); ++i) {
            for (const LlcTraceCache::Entry &e : *got[i]) {
                FitnessTrace ft;
                ft.name = specs[i].name;
                ft.llcTrace = e.demandTrace;
                ft.instructions = e.instructions;
                traces_.push_back(std::move(ft));
            }
        }
        setupCounters["trace_cache.hits"] =
            static_cast<double>(cache.hits());
        setupCounters["trace_cache.misses"] =
            static_cast<double>(cache.misses());
    }

    void
    run(Tracer *tracer, RepResult &out) override
    {
        const TracedEngine traced(tracer);
        const fastpath::ReplayEngine *engine =
            tracer ? static_cast<const fastpath::ReplayEngine *>(&traced)
                   : &fastpath::defaultReplayEngine();
        telemetry::PhaseTimings taps;
        telemetry::MetricRegistry registry;

        SpanScope baseline(tracer, "ga.baseline", "", true);
        const double b0 = wallNow();
        FitnessEvaluator fitness(sys_.hier.llc, traces_, {}, nullptr,
                                 engine);
        fitness.attachTelemetry(registry, "ga");
        const double baseline_s = wallNow() - b0;
        baseline.close();

        const GaParams params = gaParams(gaSeed_, threads_, &taps);
        auto evolve = [&](IpvFamily family, const char *name) {
            SpanScope s(tracer, "ga.evolve", name, true);
            const uint64_t before =
                registry.counter("ga.evaluations").value();
            const double t0 = wallNow();
            GaResult res = evolveIpv(fitness, family, params);
            const double dt = wallNow() - t0;
            const uint64_t evals =
                registry.counter("ga.evaluations").value() - before;
            out.outputs[std::string("ga_") + name + "_genomes_per_s"] =
                static_cast<double>(evals) / dt;
            out.counters[std::string("ga.evolve_s.") + name] = dt;
            return res;
        };
        last_.giplr = evolve(IpvFamily::Giplr, "giplr");
        last_.gippr = evolve(IpvFamily::Gippr, "gippr");

        SpanScope duel_span(tracer, "ga.duel_select", "", true);
        const double d0 = wallNow();
        std::vector<Ipv> candidates;
        for (const SampledIpv &s : last_.gippr.finalPopulation)
            candidates.push_back(s.ipv);
        last_.duel = selectDuelSet(fitness, IpvFamily::Gippr, candidates, 4);
        const double duel_s = wallNow() - d0;
        duel_span.close();

        out.outputs["ga_gippr_best_fitness"] = last_.gippr.bestFitness;
        out.counters["ga.eval_s"] = taps.seconds("ga_eval");
        out.counters["ga.baseline_s"] = baseline_s;
        out.counters["ga.duel_select_s"] = duel_s;
        out.counters["ga.replays"] =
            static_cast<double>(registry.counter("ga.replays").value());
        const double hits =
            static_cast<double>(registry.counter("ga.memo_hits").value());
        const double misses = static_cast<double>(
            registry.counter("ga.memo_misses").value());
        out.counters["ga.memo_hit_ratio"] =
            hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    }

    uint64_t
    digest() const override
    {
        Digest d;
        for (const GaResult *g : {&last_.giplr, &last_.gippr}) {
            d.add(g->best);
            d.add(g->bestFitness);
            for (double h : g->history)
                d.add(h);
            for (const SampledIpv &s : g->finalPopulation) {
                d.add(s.ipv);
                d.add(s.fitness);
            }
        }
        for (const Ipv &v : last_.duel)
            d.add(v);
        return d.value();
    }

    std::vector<CheckCell>
    check() override
    {
        // The top two final-population fitness values and the best
        // fitness of each family, re-evaluated one genome at a time on
        // the scalar engine with no memo.
        const fastpath::ScalarReplayEngine scalar;
        FitnessEvaluator ref(sys_.hier.llc, traces_, {}, nullptr, &scalar);
        ref.setBatchWidth(1);
        ref.setMemoCapacity(0);
        std::vector<CheckCell> cells;
        const std::pair<IpvFamily, GaResult *> families[] = {
            {IpvFamily::Giplr, &last_.giplr},
            {IpvFamily::Gippr, &last_.gippr}};
        for (const auto &[family, g] : families) {
            const std::string name = family == IpvFamily::Giplr
                                         ? "giplr"
                                         : "gippr";
            std::vector<Ipv> ipvs;
            for (size_t i = 0; i < 2 && i < g->finalPopulation.size(); ++i)
                ipvs.push_back(g->finalPopulation[i].ipv);
            const std::vector<double> values =
                ref.evaluateAll(ipvs, family, threads_);
            for (size_t i = 0; i < ipvs.size(); ++i) {
                double &timed = g->finalPopulation[i].fitness;
                cells.push_back({"fitness " + name + " rank " +
                                     std::to_string(i),
                                 [&timed] { return timed; }, values[i],
                                 nudge(timed)});
            }
            double &best = g->bestFitness;
            cells.push_back({"best fitness " + name,
                             [&best] { return best; }, values[0],
                             nudge(best)});
        }
        return cells;
    }

  private:
    struct Result
    {
        GaResult giplr, gippr;
        std::vector<Ipv> duel;
    };

    std::vector<FitnessTrace> traces_;
    Result last_;
};

// ---- shared_llc ----------------------------------------------------

/**
 * runSharedLlc over the four historical preset mixes x {LRU, PLRU,
 * GIPPR, 4-DGIPPR} x {none, utility}, with solo baselines: the only
 * workload that runs sim/multicore.
 */
class SharedLlc : public BenchWorkload
{
  public:
    using BenchWorkload::BenchWorkload;

    struct Cell
    {
        size_t mix;
        const char *partition;
        size_t policy;
    };

    void
    setup(Tracer *tracer) override
    {
        suite_ = SyntheticSuite(suiteParams(seed_));
        const std::vector<multicore::MixSpec> &all =
            multicore::presetMixes();
        mixes_.assign(all.begin(), all.begin() + 4);
        policies_ = {
            {"LRU", fastpath::lruSpec()},
            {"PLRU", fastpath::plruSpec()},
            {"GIPPR", fastpath::gipprSpec(local_vectors::gippr())},
            {"4-DGIPPR", fastpath::dgipprSpec(local_vectors::dgippr4())},
        };
        cells_.clear();
        for (size_t m = 0; m < mixes_.size(); ++m)
            for (const char *part : {"none", "utility"})
                for (size_t p = 0; p < policies_.size(); ++p)
                    cells_.push_back({m, part, p});

        // Filter every distinct tenant once, in parallel, then let
        // buildCoreStreams assemble the mixes from the warm cache.
        streams_.clear();
        setupCounters.clear();
        LlcTraceCache cache;
        std::vector<std::string> names;
        for (const multicore::MixSpec &mix : mixes_)
            for (const multicore::TenantSpec &t : mix.tenants)
                if (std::find(names.begin(), names.end(), t.workload) ==
                    names.end())
                    names.push_back(t.workload);
        parallelFor(names.size(), threads_, [&](size_t i) {
            tracedGet(tracer, cache, suite_.spec(names[i]), sys_.hier);
        });
        streams_.assign(mixes_.size(), {});
        for (size_t m = 0; m < mixes_.size(); ++m) {
            SpanScope s(tracer, "multicore.streams", mixes_[m].name);
            streams_[m] = multicore::buildCoreStreams(mixes_[m], suite_,
                                                      sys_.hier, &cache);
        }
        setupCounters["trace_cache.hits"] =
            static_cast<double>(cache.hits());
        setupCounters["trace_cache.misses"] =
            static_cast<double>(cache.misses());
    }

    multicore::RunParams
    paramsFor(const Cell &c) const
    {
        multicore::RunParams params;
        params.llc = sys_.hier.llc;
        params.policy = policies_[c.policy].second;
        params.schedule = multicore::Schedule::Weighted;
        params.duelScope = multicore::DuelScope::PerCore;
        params.partition = multicore::parsePartition(
            c.partition, static_cast<unsigned>(streams_[c.mix].size()));
        return params;
    }

    void
    run(Tracer *tracer, RepResult &out) override
    {
        last_.assign(cells_.size(), {});
        parallelFor(cells_.size(), threads_, [&](size_t i) {
            const Cell &c = cells_[i];
            const std::string item = tracer ? tagOf(c) : std::string();
            SpanScope it(tracer, "parallel.item", item);
            SpanScope s(tracer, "multicore.run", item);
            last_[i] = multicore::runSharedLlc(streams_[c.mix], paramsFor(c));
        });
        out.outputs["weighted_speedup_4dgippr"] = weightedSpeedup4Dgippr();
    }

    /**
     * The shared pass alone (computeSolo off) on every cell; the solo
     * baselines are the rest of the traced repetition's run spans.
     */
    void
    probe(Tracer *tracer, RepResult &) override
    {
        parallelFor(cells_.size(), threads_, [&](size_t i) {
            const Cell &c = cells_[i];
            multicore::RunParams params = paramsFor(c);
            params.computeSolo = false;
            SpanScope s(tracer, "multicore.shared", tagOf(c));
            const multicore::RunResult r =
                multicore::runSharedLlc(streams_[c.mix], params);
            s.addWork(r.total.accesses);
        });
    }

    uint64_t
    digest() const override
    {
        Digest d;
        for (const multicore::RunResult &r : last_) {
            for (const multicore::CoreResult &c : r.cores) {
                d.add(c.workload);
                d.add(c.measuredInstructions);
                d.add(c.stats.measured);
                d.add(c.stats.total);
                d.add(c.solo.measured);
            }
            d.add(r.fairness.weightedSpeedup);
            d.add(r.fairness.throughput);
            d.add(r.fairness.maxSlowdown);
            d.add(r.fairness.meanSlowdown);
            for (unsigned w : r.wayCounts)
                d.add(uint64_t{w});
            d.add(r.repartitions);
        }
        return d.value();
    }

    /** Mean weighted speedup of 4-DGIPPR without partitioning. */
    double
    weightedSpeedup4Dgippr() const
    {
        std::vector<double> ws;
        for (size_t i = 0; i < cells_.size(); ++i)
            if (policies_[cells_[i].policy].first == "4-DGIPPR" &&
                std::strcmp(cells_[i].partition, "none") == 0)
                ws.push_back(last_[i].fairness.weightedSpeedup);
        return mean(ws);
    }

    std::vector<CheckCell>
    check() override
    {
        // Two cells replayed on the scalar shared-LLC reference.
        std::vector<CheckCell> cells;
        for (size_t i : {size_t{7}, size_t{cells_.size() - 6}}) {
            const Cell &c = cells_[i];
            multicore::RunParams params = paramsFor(c);
            params.backend = multicore::Backend::Scalar;
            const multicore::RunResult ref =
                multicore::runSharedLlc(streams_[c.mix], params);
            multicore::RunResult &got = last_[i];
            const std::string tag = tagOf(c);
            cells.push_back({"weighted speedup " + tag,
                             [&got] { return got.fairness.weightedSpeedup; },
                             ref.fairness.weightedSpeedup,
                             nudge(got.fairness.weightedSpeedup)});
            cells.push_back({"demand misses " + tag,
                             [&got] {
                                 return static_cast<double>(
                                     got.measured.demandMisses);
                             },
                             static_cast<double>(ref.measured.demandMisses),
                             {}});
            cells.push_back({"hits " + tag,
                             [&got] {
                                 return static_cast<double>(
                                     got.measured.hits);
                             },
                             static_cast<double>(ref.measured.hits), {}});
        }
        return cells;
    }

  private:
    std::string
    tagOf(const Cell &c) const
    {
        return mixes_[c.mix].name + "/" + c.partition + "/" +
               policies_[c.policy].first;
    }

    std::vector<multicore::MixSpec> mixes_;
    std::vector<std::pair<std::string, fastpath::ReplaySpec>> policies_;
    std::vector<Cell> cells_;
    std::vector<std::vector<multicore::CoreStream>> streams_;
    std::vector<multicore::RunResult> last_;
};

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name, uint64_t seed, uint64_t ga_seed,
             unsigned threads)
{
    if (name == "miss_sweep")
        return std::make_unique<MissSweep>(seed, ga_seed, threads);
    if (name == "perf_sweep")
        return std::make_unique<PerfSweep>(seed, ga_seed, threads);
    if (name == "ga_search")
        return std::make_unique<GaSearch>(seed, ga_seed, threads);
    if (name == "shared_llc")
        return std::make_unique<SharedLlc>(seed, ga_seed, threads);
    return nullptr;
}

// ---------------------------------------------------------------- layers

/** Per-layer metrics of one traced repetition (plus traced setup). */
MetricMap
layerMetrics(const std::vector<Span> &spans, const RepResult &rep,
             const MetricMap &setup_counters, unsigned threads)
{
    const LayerTotals t(spans);
    MetricMap m;
    auto self = [&](const char *k) { return t.get(t.self, k); };

    m["workloads.materialize_s"] = self("workloads.materialize");
    m["workloads.materialize_mrefs_per_s"] =
        t.rate("workloads.materialize");
    m["cache.filter_s"] = self("cache.filter");
    m["cache.filter_mrefs_per_s"] = t.rate("cache.filter");
    {
        auto w = t.work.find("cache.filter");
        auto o = t.out.find("cache.filter");
        m["cache.llc_pass_ratio"] =
            w != t.work.end() && w->second > 0
                ? static_cast<double>(o->second) /
                      static_cast<double>(w->second)
                : 0.0;
    }

    MetricMap counters = setup_counters;
    for (const auto &[k, v] : rep.counters)
        counters[k] += v;
    auto counter = [&](const char *k) {
        auto it = counters.find(k);
        return it == counters.end() ? 0.0 : it->second;
    };
    const double hits = counter("trace_cache.hits");
    const double misses = counter("trace_cache.misses");
    m["trace_cache.hits"] = hits;
    m["trace_cache.misses"] = misses;
    m["trace_cache.hit_ratio"] =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;

    m["fastpath.replay_s"] = self("fastpath.replay");
    m["fastpath.replay_maccs"] = t.rate("fastpath.replay");
    for (const char *fam : {"giplr", "gippr"}) {
        const std::string key = std::string("fastpath.batch.") + fam;
        m[std::string("fastpath.batch_s.") + fam] = t.get(t.self, key);
        m[std::string("fastpath.batch_maccs.") + fam] = t.rate(key);
    }

    m["policies.scalar_replay_s"] = self("policies.scalar_replay");
    m["policies.scalar_maccs"] = t.rate("policies.scalar_replay");
    m["policies.min_s"] = self("policies.min");

    const double simulate = self("sim.simulate");
    m["sim.simulate_s"] = simulate;
    m["sim.minst_per_s"] =
        simulate > 0.0 ? counter("sim.instructions") / simulate / 1e6 : 0.0;
    m["sim.l1l2_s"] = self("sim.l1l2");
    {
        // simulateWorkload re-runs L1/L2 once per policy; all but one
        // of those passes are redundant.
        std::set<std::string> policies;
        for (const Span &s : spans)
            if (s.name == "sim.simulate")
                policies.insert(s.policy);
        m["sim.l1l2_redundant_share"] =
            simulate > 0.0 && !policies.empty()
                ? static_cast<double>(policies.size() - 1) *
                      self("sim.l1l2") / simulate
                : 0.0;
    }

    const double eval = counter("ga.eval_s");
    m["ga.eval_s"] = eval;
    m["ga.breed_s"] = std::max(
        0.0, counter("ga.evolve_s.giplr") + counter("ga.evolve_s.gippr") -
                 eval);
    m["ga.baseline_s"] = counter("ga.baseline_s");
    m["ga.duel_select_s"] = counter("ga.duel_select_s");
    m["ga.replays"] = counter("ga.replays");
    m["ga.memo_hit_ratio"] = counter("ga.memo_hit_ratio");

    // The probe runs the shared pass alone; the solo baselines are
    // the rest of the traced runSharedLlc calls.
    const double shared = self("multicore.shared");
    m["multicore.streams_s"] = self("multicore.streams");
    m["multicore.shared_s"] = shared;
    m["multicore.shared_maccs"] = t.rate("multicore.shared");
    m["multicore.solo_s"] = std::max(0.0, self("multicore.run") - shared);

    // Pool items: workloads in the sweeps, cells in shared_llc, else
    // the library pool's replay calls (GA).
    std::vector<double> items;
    for (const Span &s : spans)
        if (s.name == "parallel.item")
            items.push_back(s.wall());
    if (items.empty())
        for (const Span &s : spans)
            if (s.name.rfind("fastpath.", 0) == 0)
                items.push_back(s.wall());
    m["parallel.threads"] = threads;
    m["parallel.cpu_util"] =
        rep.wall > 0.0 ? rep.cpu / (rep.wall * threads) : 0.0;
    const double p50 = percentileOf(items, 50.0);
    const double mx = items.empty() ? 0.0 : maxOf(items);
    m["parallel.item_p50_s"] = p50;
    m["parallel.item_p90_s"] = percentileOf(items, 90.0);
    m["parallel.item_max_s"] = mx;
    m["parallel.straggler_ratio"] = p50 > 0.0 ? mx / p50 : 0.0;
    return m;
}

double
medianOf(std::vector<double> v)
{
    return v.empty() ? 0.0 : median(std::move(v));
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans,
           const std::string &fingerprint)
{
    std::ofstream f(path);
    f << "{\"fingerprint\": " << fingerprint << ",\n \"spans\": [\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        f << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"name\": " << jsonString(s.name)
          << ", \"item\": " << jsonString(s.item)
          << ", \"thread\": " << s.thread
          << ", \"start\": " << jsonNumber(s.start)
          << ", \"end\": " << jsonNumber(s.end)
          << ", \"cpu\": " << jsonNumber(s.cpu) << ", \"work\": " << s.work
          << ", \"out\": " << s.out
          << ", \"policy\": " << jsonString(s.policy)
          << ", \"derived\": " << (s.derived ? "true" : "false") << "}"
          << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    f << " ]}\n";
    if (!f)
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     path.c_str());
}

// ---------------------------------------------------------------- host

std::string
cpuModel()
{
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
        if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string
isaFlags()
{
    std::string out;
    auto flag = [&](bool on, const char *name) {
        if (on)
            out += (out.empty() ? "" : " ") + std::string(name);
    };
    __builtin_cpu_init();
    flag(__builtin_cpu_supports("sse4.2"), "sse4.2");
    flag(__builtin_cpu_supports("popcnt"), "popcnt");
    flag(__builtin_cpu_supports("avx2"), "avx2");
    flag(__builtin_cpu_supports("bmi2"), "bmi2");
    flag(__builtin_cpu_supports("avx512f"), "avx512f");
    flag(__builtin_cpu_supports("avx512bw"), "avx512bw");
    flag(__builtin_cpu_supports("avx512vl"), "avx512vl");
    flag(__builtin_cpu_supports("avx512vbmi"), "avx512vbmi");
    return out;
}

std::string
gipprEnv()
{
    std::string out;
    for (char **e = environ; e && *e; ++e)
        if (std::strncmp(*e, "GIPPR_", 6) == 0)
            out += (out.empty() ? "" : " ") + std::string(*e);
    return out;
}

std::string
fingerprint(const Options &opt, unsigned threads)
{
    std::ostringstream f;
    f << "{\"cpu_model\": " << jsonString(cpuModel())
      << ", \"nproc\": " << hostThreads()
      << ", \"isa\": " << jsonString(isaFlags()) << ", \"replay_kernel\": "
      << jsonString(fastpath::replayKernelName(
             fastpath::activeReplayKernel()))
      << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << jsonString(std::string("gcc ") + __VERSION__)
      << ", \"threads\": " << threads
      << ", \"gippr_env\": " << jsonString(gipprEnv())
      << ", \"workload\": " << jsonString(opt.workload)
      << ", \"seed\": " << opt.seed << ", \"ga_seed\": " << opt.gaSeed
      << ", \"seconds\": "
      << jsonNumber(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
      << "}";
    return f.str();
}

// ---------------------------------------------------------------- main

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<miss_sweep|perf_sweep|ga_search|shared_llc> --seed <n> "
                 "--seconds <s> --trace <0|1> [--ga-seed <n>] "
                 "[--out <dir>]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 0);
        } else if (a == "--ga-seed") {
            o.gaSeed = std::strtoull(v.c_str(), &end, 0);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            o.trace = v == "1";
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
        } else if (a == "--out") {
            o.outDir = v;
        } else if (a == "--ready-fd") {
            o.readyFd = static_cast<int>(std::strtol(v.c_str(), &end, 10));
        } else {
            usage(("unknown flag " + a).c_str());
        }
        if (end && *end != '\0')
            usage(("malformed number for " + a).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(o.seconds > 0.0 && o.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return o;
}

/**
 * Set-up processes per run; setup_s is their median.  Cheap set-ups
 * repeat until kSetupBudget seconds have passed.
 */
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 1000;
constexpr double kSetupBudget = 0.5;

/**
 * One set-up as a user meets it: a fresh process of this binary
 * starts, builds the workload's inputs and signals readiness on a
 * pipe.  Returns the launch-to-ready seconds, or a negative value when
 * the child failed; the child is reaped before returning.
 */
double
timedSetupProcess(const char *self, const Options &opt)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1.0;
    const std::vector<std::string> args = {
        self, "--workload", opt.workload,
        "--seed", std::to_string(opt.seed),
        "--ga-seed", std::to_string(opt.gaSeed),
        "--ready-fd", std::to_string(fds[1])};
    std::vector<char *> argv;
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    pid_t pid = 0;
    const double t0 = wallNow();
    const int rc =
        posix_spawn(&pid, self, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    char byte = 0;
    ssize_t n = -1;
    if (rc == 0) {
        do {
            n = read(fds[0], &byte, 1);
        } while (n < 0 && errno == EINTR);
    }
    const double ready = wallNow() - t0;
    close(fds[0]);
    if (rc != 0)
        return -1.0;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const bool ok = n == 1 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return ok ? ready : -1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const unsigned threads = hostThreads();
    std::unique_ptr<BenchWorkload> wl =
        makeWorkload(opt.workload, opt.seed, opt.gaSeed, threads);
    if (!wl)
        usage(("unknown workload " + opt.workload).c_str());
    if (opt.readyFd >= 0) {
        wl->setup(nullptr);
        const bool sent = write(opt.readyFd, "r", 1) == 1;
        std::_Exit(sent ? 0 : 1);
    }
    const std::string fp = fingerprint(opt, threads);
    std::printf("fingerprint %s\n", fp.c_str());
    std::fflush(stdout);

    // Host speed, probed from here to the end of the repetitions.
    HostSpeedSampler sampler;

    // Set-up time: launch-to-ready of fresh processes, so it covers
    // process start and library initialisation as well, and no run
    // depends on one process's memory placement.
    std::vector<double> setups;
    double setup_total = 0.0;
    while (setups.size() < kMinSetups ||
           (setups.size() < kMaxSetups && setup_total < kSetupBudget)) {
        const double s = timedSetupProcess(argv[0], opt);
        if (s < 0.0) {
            std::fprintf(stderr, "perfbench: set-up process failed\n");
            return 1;
        }
        setups.push_back(s);
        setup_total += s;
    }

    // This process's own set-up, traced in a traced run.
    Tracer tracer;
    {
        SpanScope root(opt.trace ? &tracer : nullptr, "bench.setup", "",
                       true);
        wl->setup(opt.trace ? &tracer : nullptr);
    }
    wl->setupSpans = tracer.take();
    malloc_trim(0);

    // Repetitions until the budget is spent; a traced run alternates
    // untraced and traced ones.  A repetition is not started when half
    // of a typical one would already overrun the budget.
    std::vector<RepResult> plain, traced;
    const double budget_start = wallNow();
    auto budget_left = [&] {
        std::vector<double> walls;
        for (const RepResult &r : plain)
            walls.push_back(r.wall);
        return wallNow() - budget_start + 0.5 * median(walls) <
               opt.seconds;
    };
    while (plain.empty() || (opt.trace && traced.empty()) ||
           budget_left()) {
        const bool trace_now =
            opt.trace && traced.size() < plain.size();
        RepResult rep;
        const double c0 = processCpuNow();
        const double t0 = wallNow();
        {
            SpanScope root(trace_now ? &tracer : nullptr, "bench.rep", "",
                           true);
            wl->run(trace_now ? &tracer : nullptr, rep);
            rep.wall = wallNow() - t0;
            rep.cpu = processCpuNow() - c0;
        }
        rep.digest = wl->digest();
        // Hand freed trace memory back (here and after the set-ups) so
        // peak RSS reflects one repetition, not allocator history.
        malloc_trim(0);
        if (trace_now) {
            rep.spans = tracer.take();
            wl->probe(&tracer, rep);
            rep.probeSpans = tracer.take();
            traced.push_back(std::move(rep));
        } else {
            plain.push_back(std::move(rep));
        }
    }
    const std::vector<double> speeds = sampler.stop();

    // Correctness: the stored result of the last repetition against
    // reference recomputation, and every repetition's digest against
    // the first.
    const uint64_t digest = plain.front().digest;
    std::vector<CheckCell> cells = wl->check();
    auto compare_cells = [&](Checks &into) {
        for (const CheckCell &c : cells)
            into.expect(c.what, c.timed(), c.reference);
    };
    auto compare_digest = [&](Checks &into, const char *what,
                              uint64_t got) {
        into.expect(what, got == digest ? 1.0 : 0.0, 1.0);
    };
    Checks checks;
    compare_cells(checks);
    for (const RepResult &r : plain)
        compare_digest(checks, "digest of untraced repetition", r.digest);
    for (const RepResult &r : traced)
        compare_digest(checks, "digest of traced repetition", r.digest);

    // Self-test: nudge the stored value the first cell reads, then the
    // same comparisons must each report exactly one failure.
    Checks value_probe, digest_probe;
    if (!cells.empty() && cells.front().perturb) {
        cells.front().perturb();
        compare_cells(value_probe);
        compare_digest(digest_probe, "digest of perturbed result",
                       wl->digest());
    }
    const bool selftest_ok =
        value_probe.failed == 1 && digest_probe.failed == 1;
    for (const std::string &f : checks.failures)
        std::printf("check FAILED %s\n", f.c_str());
    std::printf("checks %" PRIu64 " attempted, %" PRIu64 " failed\n",
                checks.attempted, checks.failed);
    std::printf("selftest %s (cells failed %" PRIu64 ", digests failed %"
                PRIu64 ")\n",
                selftest_ok ? "perturbed value caught"
                            : "perturbed value NOT caught",
                value_probe.failed, digest_probe.failed);
    std::printf("digest %s %s\n", opt.workload.c_str(),
                hex(digest).c_str());

    // End-to-end metrics from the untraced repetitions, in host time;
    // run.py brings them to the reference speed with host.speed.
    MetricMap metrics;
    std::vector<double> walls, cpus;
    for (const RepResult &r : plain) {
        walls.push_back(r.wall);
        cpus.push_back(r.cpu);
    }
    metrics["wall_s"] = medianOf(walls);
    metrics["cpu_s"] = medianOf(cpus);
    metrics["setup_s"] = medianOf(setups);
    metrics["host.speed"] = medianOf(speeds);
    metrics["peak_rss_mb"] = peakRssMb();
    metrics["error_rate"] =
        static_cast<double>(checks.failed) /
        static_cast<double>(std::max<uint64_t>(1, checks.attempted));
    for (const auto &[k, v] : plain.front().outputs) {
        std::vector<double> vals;
        for (const RepResult &r : plain)
            vals.push_back(r.outputs.at(k));
        metrics[k] = medianOf(vals);
    }

    // Per-layer metrics: median over traced repetitions.
    if (opt.trace) {
        std::map<std::string, std::vector<double>> per;
        std::vector<Span> all = wl->setupSpans;
        for (const RepResult &r : traced) {
            std::vector<Span> spans = wl->setupSpans;
            spans.insert(spans.end(), r.spans.begin(), r.spans.end());
            spans.insert(spans.end(), r.probeSpans.begin(),
                         r.probeSpans.end());
            for (const auto &[k, v] :
                 layerMetrics(spans, r, wl->setupCounters, threads))
                per[k].push_back(v);
            // Attribution: layer self CPU inside the repetition
            // against process CPU over it.
            const std::vector<double> self = selfCpu(r.spans);
            double attributed = 0.0;
            for (size_t i = 0; i < r.spans.size(); ++i)
                if (r.spans[i].name != "bench.rep")
                    attributed += self[i];
            const double cpu = r.cpu;
            per["trace.unattributed_s"].push_back(cpu - attributed);
            per["trace.attributed_share"].push_back(
                cpu > 0.0 ? attributed / cpu : 0.0);
            per["trace.wall_s"].push_back(r.wall);
            all.insert(all.end(), spans.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          wl->setupSpans.size()),
                       spans.end());
        }
        for (auto &[k, v] : per)
            metrics[k] = medianOf(v);
        metrics["trace.overhead_s"] =
            metrics["trace.wall_s"] - metrics["wall_s"];
        metrics.erase("trace.wall_s");
        char name[256];
        std::snprintf(name, sizeof(name), "%s/spans-%s-seed%" PRIu64 ".json",
                      opt.outDir.c_str(), opt.workload.c_str(), opt.seed);
        writeSpans(name, all, fp);
        std::printf("spans %zu written to %s\n", all.size(), name);
    }

    std::printf("repetitions %zu untraced, %zu traced; setups %zu\n",
                plain.size(), traced.size(), setups.size());
    std::printf("host speed %.4f, median of %zu probes from %.4f to %.4f\n",
                metrics["host.speed"], speeds.size(),
                *std::min_element(speeds.begin(), speeds.end()),
                *std::max_element(speeds.begin(), speeds.end()));
    for (const RepResult &r : plain)
        std::printf("repetition wall %.6f cpu %.6f\n", r.wall, r.cpu);

    // Names and values only: units live in BENCHMARK.json.
    std::ostringstream json;
    json << "{\"correct\": "
         << (checks.failed == 0 && selftest_ok ? "true" : "false")
         << ", \"attempted\": " << checks.attempted
         << ", \"failed\": " << checks.failed
         << ", \"digest\": " << jsonString(hex(digest))
         << ", \"fingerprint\": " << fp << ", \"metrics\": {";
    bool first = true;
    for (const auto &[k, v] : metrics) {
        json << (first ? "" : ", ") << jsonString(k) << ": "
             << jsonNumber(v);
        first = false;
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    return 0;
}
