/**
 * @file
 * Shared pieces of the host-time benchmark: the workload interface,
 * the benchmark-side span log and the metric table.
 *
 * Everything here measures from outside the simulator: spans wrap
 * the benchmark's own calls into each layer's public functions, and
 * counters are read through the layers' public snapshots. Nothing in
 * src/ is changed or instrumented.
 */

#ifndef CRONUS_PERFBENCH_BENCH_HH
#define CRONUS_PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/sim_clock.hh"
#include "base/status.hh"

namespace cronus::core
{
class CronusSystem;
}

namespace perfbench
{

using HostClock = std::chrono::steady_clock;

inline int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               HostClock::now().time_since_epoch())
        .count();
}

/** splitmix64: seed derivation and digest mixing. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/* ------------------------------------------------------------------ */
/* Span log                                                            */
/* ------------------------------------------------------------------ */

/**
 * In-memory span log. A span is one benchmark-side call into a
 * layer's public function: name, host start/end, parent span and the
 * id of the operation (or probe) it belongs to. When disabled (the
 * untraced runs) opening a span costs one branch and no clock read.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name = nullptr;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int32_t parent = -1;
        uint64_t op = 0;
    };

    static SpanLog &instance();

    void enable(bool on) { active = on; }
    bool enabled() const { return active; }
    /** Spans opened from now on belong to operation @p op. */
    void setOp(uint64_t op) { currentOp = op; }

    int32_t open(const char *name);
    void close(int32_t index);
    void rename(int32_t index, const char *name)
    {
        log[static_cast<size_t>(index)].name = name;
    }

    const std::vector<Span> &spans() const { return log; }

    /** Write every span as JSON lines ([op, parent, name, start,
     *  end] in ns relative to the first span). */
    bool writeJsonLines(const std::string &path) const;

  private:
    bool active = false;
    uint64_t currentOp = 0;
    std::vector<Span> log;
    std::vector<int32_t> stack;
};

/** RAII span; a no-op while the log is disabled. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
        : index(SpanLog::instance().enabled()
                    ? SpanLog::instance().open(name)
                    : -1)
    {
    }
    ~ScopedSpan()
    {
        if (index >= 0)
            SpanLog::instance().close(index);
    }
    /** Re-label the span once the call shows what it did. */
    void
    rename(const char *name)
    {
        if (index >= 0)
            SpanLog::instance().rename(index, name);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int32_t index;
};

/* ------------------------------------------------------------------ */
/* Metrics                                                             */
/* ------------------------------------------------------------------ */

struct Metric
{
    double value = 0.0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/* ------------------------------------------------------------------ */
/* Workloads                                                           */
/* ------------------------------------------------------------------ */

/**
 * One closed-loop workload. setup() builds the machine or cluster,
 * places the initial enclaves and warms up; op() runs one operation
 * including its correctness check and returns non-Ok when either the
 * program or the check failed.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual cronus::Status setup(uint64_t seed) = 0;

    /** Untimed: derive operation @p index's input, if any. */
    virtual void prepare(uint64_t index) { (void)index; }

    virtual cronus::Status op(uint64_t index) = 0;

    /** Traced run only, untimed: extra layer probes for the
     *  operation just run. */
    virtual void traceProbe(uint64_t index) { (void)index; }

    /** Virtual time charged so far by the workload's system(s). */
    virtual cronus::SimTime virtualNs() = 0;

    /** End-of-run checks over the whole timed phase. */
    virtual cronus::Status finish() = 0;

    /**
     * Cumulative layer counters read through public snapshots, by
     * the raw names the runner's derived-metric table expects
     * ("tlb_hits", "srpc_calls", ...). The runner reports their
     * change over the timed phase per operation, or as a ratio.
     */
    virtual void counters(std::map<std::string, double> &out) = 0;

    /** Digest of the virtual-time outputs seen so far. */
    uint64_t digest() const { return outputDigest; }

  protected:
    void note(uint64_t word) { outputDigest = mix64(outputDigest ^ word); }

  private:
    uint64_t outputDigest = 0;
};

std::unique_ptr<Workload> makeRodinia();
std::unique_ptr<Workload> makeFailover();
std::unique_ptr<Workload> makeFleet();
std::unique_ptr<Workload> makeFuzz();

/**
 * Add @p sys's monitor, SPM, TLB, SMMU and bus counters (from its
 * metrics().snapshot() and the monitor's statistics) into @p out,
 * summing across systems for multi-node workloads.
 */
void addSystemCounters(cronus::core::CronusSystem &sys,
                       std::map<std::string, double> &out);

/** Crypto and device-memory probes (traced run only). */
void runProbes(Metrics &out);

/** Median of @p v (upper median for an even count); 0 when empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

/**
 * Host-speed calibration. The benchmark shares a host whose speed
 * drifts by tens of percent over minutes, for every program running
 * on it, so raw run-to-run spread would hide what a change to src/
 * does. sample() times a fixed kernel compiled here (inserts and
 * lookups in a small ordered map on a fixed arena; no call into
 * src/). slowness() is the median sample over kNominalNs. Dividing
 * a host time by slowness() gives it at the nominal speed, at which
 * one sample takes kNominalNs: its typical time on the 4-vCPU Xeon
 * guest the bounds were set on.
 */
class HostSpeed
{
  public:
    static constexpr double kNominalNs = 450000.0;

    /** Time the kernel once; returns its host ns. */
    double sample();
    /** Host slowness relative to nominal: above 1 is slower. */
    double slowness() const;
    /** Every sample taken so far. */
    const std::vector<double> &samples() const { return all; }

  private:
    std::vector<double> all;
};

/** Ratio helper that is 0 when nothing was counted. */
inline double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace perfbench

#endif // CRONUS_PERFBENCH_BENCH_HH
