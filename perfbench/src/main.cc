/**
 * @file
 * Benchmark runner: one closed-loop client thread drives one workload
 * for a fixed host time and prints the end-to-end metrics (untraced
 * run) or the per-layer metrics (traced run) as the last stdout line.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out FILE]
 *
 * Host time is what is measured and optimized; virtual time is the
 * simulated result and must repeat exactly. virtual_ms is the virtual
 * time charged by a fixed identity window -- the first windowOps
 * operations of the timed phase -- so it does not depend on how many
 * operations the host managed in the run; the run always completes
 * that window. A digest of the window's virtual-time outputs is
 * printed with it.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "base/logging.hh"
#include "base/parallel.hh"
#include "bench.hh"
#include "hw/translation_cache.hh"
#include "obs/trace.hh"
#include "tee/isolation_backend.hh"

using namespace perfbench;

namespace
{

struct WorkloadDef
{
    const char *name;
    std::function<std::unique_ptr<Workload>()> make;
    /**
     * Operations per cycle of the workload's seeded input deck. The
     * timed phase ends on a cycle boundary, so every run holds the
     * deck's exact mix.
     */
    uint64_t cycleOps;
    /** Operations in the virtual-time identity window. */
    uint64_t windowOps;
    /**
     * op_tail_ms percentile. Each is the highest percentile whose
     * value is set by the workload rather than by host interference,
     * and has far more than ten samples beyond it at the benchmark's
     * run length: rodinia's p99 is its slowest kernel mix (beyond it
     * only scheduling noise), failover's p99.9 the recovery steps,
     * fleet's p99 the attested placements and migrations, fuzz's p75
     * its two-machine scenarios. Runs too short for ten samples
     * beyond fall back to the 11th-largest latency.
     */
    double tailQuantile;
};

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"rodinia", makeRodinia, 9, 2000, 0.99},
        {"failover", makeFailover, 2, 4000, 0.999},
        {"fleet", makeFleet, 100, 4000, 0.99},
        {"fuzz", makeFuzz, 18, 90, 0.75},
    };
    return defs;
}

/** Set-up rounds per run; setup_s is their median. */
constexpr int kSetupRounds = 7;
/** Host time between HostSpeed samples in the timed phase. */
constexpr int64_t kSpeedEveryNs = 50000000;
/** Operation id of spans recorded by the crypto/accel probes. */
constexpr uint64_t kProbeOp = ~0ull;

/**
 * Per-layer metrics of the traced run, in output order. Span-derived
 * entries give the host p50 of the named span and its share of
 * operation time; counter entries give a per-operation change or a
 * ratio over the timed phase. Metrics of a layer the workload does
 * not exercise read 0.
 */
struct LayerDef
{
    enum class Kind
    {
        SpanP50,    ///< p50 of span `src`, scaled to `unit`
        SpanShare,  ///< self time of span `src` / operation time
        PerOp,      ///< counter `src` change per operation
        Ratio,      ///< counter `src` / (`src` + `other`)
        Quotient,   ///< counter `src` / counter `other`
        Probe,      ///< filled by runProbes / the runner itself
    };
    const char *name;
    const char *unit;
    Kind kind;
    const char *src = nullptr;
    const char *other = nullptr;
};

const std::vector<LayerDef> &
layerDefs()
{
    using K = LayerDef::Kind;
    static const std::vector<LayerDef> defs = {
        {"baseline.h2d_us", "us", K::SpanP50, "baseline.h2d"},
        {"baseline.d2h_us", "us", K::SpanP50, "baseline.d2h"},
        {"baseline.launch_us", "us", K::SpanP50, "baseline.launch"},
        {"baseline.sync_us", "us", K::SpanP50, "baseline.sync"},
        {"baseline.alloc_free_us", "us", K::SpanP50,
         "baseline.alloc_free"},
        {"baseline.h2d_share", "ratio", K::SpanShare, "baseline.h2d"},
        {"baseline.d2h_share", "ratio", K::SpanShare, "baseline.d2h"},
        {"baseline.launch_share", "ratio", K::SpanShare,
         "baseline.launch"},
        {"baseline.sync_share", "ratio", K::SpanShare, "baseline.sync"},
        {"baseline.alloc_free_share", "ratio", K::SpanShare,
         "baseline.alloc_free"},
        {"baseline.driver_share", "ratio", K::Probe},
        {"core.srpc_calls", "count/op", K::PerOp, "srpc_calls"},
        {"core.srpc_bytes", "bytes/op", K::PerOp, "srpc_bytes"},
        {"core.world_switches", "count/op", K::PerOp, "world_switches"},
        {"core.reports_signed", "count/op", K::PerOp, "reports_signed"},
        {"hw.tlb_hit_ratio", "ratio", K::Ratio, "tlb_hits", "tlb_misses"},
        {"hw.tlb_shootdowns", "count/op", K::PerOp, "tlb_shootdowns"},
        {"hw.smmu_hit_ratio", "ratio", K::Ratio, "smmu_hits",
         "smmu_misses"},
        {"tee.bus_bytes_copied", "bytes/op", K::PerOp,
         "bus_bytes_copied"},
        {"tee.grants_created", "count/op", K::PerOp, "grants_created"},
        {"crypto.powmod_us", "us", K::Probe},
        {"crypto.sign_us", "us", K::Probe},
        {"crypto.verify_us", "us", K::Probe},
        {"crypto.aes_ctr_mb_s", "MB/s", K::Probe},
        {"crypto.sha256_mb_s", "MB/s", K::Probe},
        {"accel.gpu_boot_ms", "ms", K::Probe},
        {"accel.gpu_scrub_ms", "ms", K::Probe},
        {"accel.gpu_boot_minflt", "count", K::Probe},
        {"recover.call_us", "us", K::SpanP50, "recover.call"},
        {"recover.checkpoint_ms", "ms", K::SpanP50, "recover.checkpoint"},
        {"recover.resume_ms", "ms", K::SpanP50, "recover.resume"},
        {"recover.call_share", "ratio", K::SpanShare, "recover.call"},
        {"recover.checkpoint_share", "ratio", K::SpanShare,
         "recover.checkpoint"},
        {"recover.resume_share", "ratio", K::SpanShare, "recover.resume"},
        {"recover.replayed_per_recovery", "count", K::Quotient,
         "replayed_calls", "reconnects"},
        {"cluster.call_us", "us", K::SpanP50, "cluster.call"},
        {"cluster.checkpoint_us", "us", K::SpanP50, "cluster.checkpoint"},
        {"cluster.place_ms", "ms", K::SpanP50, "cluster.place"},
        {"cluster.migrate_ms", "ms", K::SpanP50, "cluster.migrate"},
        {"cluster.drain_ms", "ms", K::SpanP50, "cluster.drain"},
        {"cluster.node_cycle_ms", "ms", K::SpanP50, "cluster.node_cycle"},
        {"cluster.call_share", "ratio", K::SpanShare, "cluster.call"},
        {"cluster.checkpoint_share", "ratio", K::SpanShare,
         "cluster.checkpoint"},
        {"cluster.place_share", "ratio", K::SpanShare, "cluster.place"},
        {"cluster.migrate_share", "ratio", K::SpanShare,
         "cluster.migrate"},
        {"cluster.drain_share", "ratio", K::SpanShare, "cluster.drain"},
        {"cluster.node_cycle_share", "ratio", K::SpanShare,
         "cluster.node_cycle"},
        {"cluster.migration_commit_ratio", "ratio", K::Ratio,
         "migrations_completed", "migrations_aborted"},
        {"cluster.link_bytes", "bytes/op", K::PerOp, "link_bytes"},
        {"fuzz.generate_us", "us", K::SpanP50, "fuzz.generate"},
        {"fuzz.reference_ms", "ms", K::SpanP50, "fuzz.reference"},
        {"fuzz.run_faulted_ms", "ms", K::SpanP50, "fuzz.run_faulted"},
        {"fuzz.run_baseline_ms", "ms", K::SpanP50, "fuzz.run_baseline"},
        {"fuzz.oracle_ms", "ms", K::Probe},
        {"fuzz.generate_share", "ratio", K::SpanShare, "fuzz.generate"},
        {"fuzz.reference_share", "ratio", K::SpanShare,
         "fuzz.reference"},
        {"fuzz.run_faulted_share", "ratio", K::SpanShare,
         "fuzz.run_faulted"},
        {"fuzz.run_baseline_share", "ratio", K::SpanShare,
         "fuzz.run_baseline"},
        {"fuzz.oracle_share", "ratio", K::Probe},
        {"proc.user_ms_per_op", "ms", K::Probe},
        {"proc.sys_ms_per_op", "ms", K::Probe},
        {"proc.minflt_per_op", "count/op", K::Probe},
        {"trace.overhead_frac", "ratio", K::Probe},
    };
    return defs;
}

double
percentileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    size_t i = static_cast<size_t>(q * double(sorted.size() - 1) + 0.5);
    return sorted[std::min(i, sorted.size() - 1)];
}

struct LatencyStats
{
    double opsPerS = 0, p50Ms = 0, tailMs = 0, tailPct = 0;
    size_t beyond = 0;
};

/**
 * Closed-loop figures over per-operation latencies: throughput is
 * operations per second of operation time. The tail is taken at
 * @p tailQuantile, or at the 11th-largest latency when fewer than ten
 * samples lie beyond that percentile.
 */
LatencyStats
latencyStats(std::vector<double> ms, double tailQuantile)
{
    LatencyStats st;
    std::sort(ms.begin(), ms.end());
    const size_t n = ms.size();
    if (n == 0)
        return st;
    double sum = 0;
    for (double v : ms)
        sum += v;
    auto beyond = [&](double v) {
        return n - size_t(std::upper_bound(ms.begin(), ms.end(), v) -
                          ms.begin());
    };
    st.opsPerS = double(n) / (sum / 1e3);
    st.p50Ms = percentileSorted(ms, 0.5);
    st.tailPct = 100.0 * tailQuantile;
    st.tailMs = percentileSorted(ms, tailQuantile);
    st.beyond = beyond(st.tailMs);
    if (st.beyond < 10) {
        st.tailMs = n > 10 ? ms[n - 11] : ms.back();
        st.tailPct = n > 10 ? 100.0 * double(n - 10) / double(n) : 100.0;
        st.beyond = beyond(st.tailMs);
    }
    return st;
}

struct Usage
{
    double userMs = 0, sysMs = 0, minflt = 0, maxRssKb = 0;
};

Usage
usage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.userMs = ru.ru_utime.tv_sec * 1e3 + ru.ru_utime.tv_usec / 1e3;
    u.sysMs = ru.ru_stime.tv_sec * 1e3 + ru.ru_stime.tv_usec / 1e3;
    u.minflt = double(ru.ru_minflt);
    u.maxRssKb = double(ru.ru_maxrss);
    return u;
}

/**
 * Runs measure the defaults: TZ backend, TLB on, module store on,
 * serial engine, the program's own virtual-time tracer off. Clearing
 * the toggles before anything reads them pins those settings whatever
 * the caller's environment holds.
 */
const char *const kPinnedEnv[] = {
    "CRONUS_BACKEND",  "CRONUS_DISABLE_TLB", "CRONUS_DISABLE_MODSTORE",
    "CRONUS_PARALLEL", "CRONUS_TRACE",       "CRONUS_TRACE_FILE",
};

std::string
jsonNumber(double v)
{
    char buf[64];
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
            c = ' ';
        out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const Metrics &m, const std::vector<std::string> &order)
{
    std::string out = "{";
    for (const std::string &name : order) {
        const Metric &x = m.at(name);
        if (out.size() > 1)
            out += ",";
        out += jsonString(name) + ":{\"value\":" + jsonNumber(x.value) +
               ",\"unit\":" + jsonString(x.unit) + "}";
    }
    return out + "}";
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--spans-out")
            a.spansOut = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

/** Host cost of one span open/close pair, for trace.overhead_frac. */
double
spanCostNs()
{
    SpanLog calib;
    calib.enable(true);
    const int n = 200000;
    int64_t t0 = hostNs();
    for (int i = 0; i < n; ++i)
        calib.close(calib.open("calibrate"));
    return double(hostNs() - t0) / n;
}

double
rusageCostNs()
{
    const int n = 20000;
    int64_t t0 = hostNs();
    for (int i = 0; i < n; ++i)
        (void)usage();
    return double(hostNs() - t0) / n;
}

} // namespace

int
main(int argc, char **argv)
{
    for (const char *var : kPinnedEnv)
        unsetenv(var);
    cronus::Logger::instance().setQuiet(true);

    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--spans-out FILE]\n",
                     argv[0]);
        return 2;
    }
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloadDefs())
        if (args.workload == d.name)
            def = &d;
    if (def == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    /* The host's speed is sampled before each set-up round and all
     * through the timed phase. setup_s is scaled to the nominal speed
     * by the samples taken up to the end of set-up, the timed phase's
     * host times by all of them; the detail line keeps them raw. */
    HostSpeed speed;
    for (int i = 0; i < 5; ++i)
        speed.sample();

    /* ---- set-up: several rounds, keep the last machine ---- */
    std::unique_ptr<Workload> w;
    std::vector<double> setupS;
    for (int round = 0; round < kSetupRounds; ++round) {
        w.reset();
        speed.sample();
        int64_t t0 = hostNs();
        w = def->make();
        cronus::Status s = w->setup(args.seed);
        setupS.push_back(double(hostNs() - t0) / 1e9);
        if (!s.isOk()) {
            std::fprintf(stderr, "set-up failed: %s\n",
                         s.toString().c_str());
            return 1;
        }
    }

    const double setupSlowness = speed.slowness();

    /* ---- timed phase ---- */
    SpanLog &spans = SpanLog::instance();
    spans.enable(args.trace);
    std::map<std::string, double> countersBefore, countersAfter;
    w->counters(countersBefore);
    const cronus::SimTime virtualStart = w->virtualNs();
    cronus::SimTime windowVirtual = 0;
    uint64_t windowDigest = 0;
    std::vector<double> latMs;
    uint64_t failed = 0;
    std::string firstError;
    Usage perOp;  // traced run: summed per-operation rusage deltas
    double phaseNs = 0;
    const int64_t deadline =
        hostNs() + static_cast<int64_t>(args.seconds * 1e9);
    int64_t nextSpeedSample = 0;
    for (uint64_t i = 0;; ++i) {
        if (i >= def->windowOps && i % def->cycleOps == 0 &&
            hostNs() >= deadline)
            break;
        if (hostNs() >= nextSpeedSample) {
            speed.sample();
            nextSpeedSample = hostNs() + kSpeedEveryNs;
        }
        w->prepare(i);
        spans.setOp(i);
        Usage u0 = args.trace ? usage() : Usage{};
        int64_t t0 = hostNs();
        cronus::Status s = cronus::Status::ok();
        {
            ScopedSpan root("op");
            s = w->op(i);
        }
        int64_t t1 = hostNs();
        if (args.trace) {
            Usage u1 = usage();
            perOp.userMs += u1.userMs - u0.userMs;
            perOp.sysMs += u1.sysMs - u0.sysMs;
            perOp.minflt += u1.minflt - u0.minflt;
            w->traceProbe(i);
        }
        phaseNs += double(t1 - t0);
        latMs.push_back(double(t1 - t0) / 1e6);
        if (!s.isOk()) {
            if (failed++ == 0)
                firstError = "op " + std::to_string(i) + ": " +
                             s.toString();
        }
        if (i + 1 == def->windowOps) {
            windowVirtual = w->virtualNs() - virtualStart;
            windowDigest = w->digest();
        }
    }
    const uint64_t attempted = latMs.size();
    spans.enable(false);
    w->counters(countersAfter);
    cronus::Status fin = w->finish();
    if (!fin.isOk() && firstError.empty())
        firstError = "end-of-run check: " + fin.toString();

    Metrics m;
    std::vector<std::string> order;
    auto put = [&](const std::string &name, double v, const char *unit) {
        m[name] = Metric{v, unit};
        order.push_back(name);
    };

    const LatencyStats raw = latencyStats(latMs, def->tailQuantile);
    const double slowness = speed.slowness();

    if (!args.trace) {
        put("ops_per_s", raw.opsPerS * slowness, "1/s");
        put("op_p50_ms", raw.p50Ms / slowness, "ms");
        put("op_tail_ms", raw.tailMs / slowness, "ms");
        put("setup_s", median(setupS) / setupSlowness, "s");
        put("max_rss_mb", usage().maxRssKb / 1024.0, "MB");
        put("virtual_ms", double(windowVirtual) / 1e6, "ms");
    } else {
        Metrics probes;
        spans.enable(true);
        spans.setOp(kProbeOp);
        runProbes(probes);

        /* Durations and self times (span minus its children). */
        const auto &log = spans.spans();
        std::vector<double> self(log.size());
        for (size_t i = 0; i < log.size(); ++i)
            self[i] = double(log[i].endNs - log[i].startNs);
        for (const auto &s : log)
            if (s.parent >= 0)
                self[size_t(s.parent)] -= double(s.endNs - s.startNs);
        std::map<std::string, std::vector<double>> dur;
        std::map<std::string, double> selfSum;
        std::map<uint64_t, std::map<std::string, double>> perOpDur;
        uint64_t spansInOps = 0;
        for (size_t i = 0; i < log.size(); ++i) {
            const auto &s = log[i];
            if (s.op == kProbeOp)
                continue;
            ++spansInOps;
            dur[s.name].push_back(double(s.endNs - s.startNs));
            selfSum[s.name] += self[i];
            perOpDur[s.op][s.name] += double(s.endNs - s.startNs);
        }
        const double opNs = phaseNs > 0 ? phaseNs : 1.0;

        /* fuzz.oracle: fuzzScenario minus the parts replayed by the
         * probes (reference model, faulted and baseline runs). */
        std::vector<double> oracle;
        double oracleSum = 0;
        for (auto &[op, d] : perOpDur) {
            if (!d.count("fuzz.scenario"))
                continue;
            double rest = d["fuzz.scenario"] - d["fuzz.reference"] -
                          d["fuzz.run_faulted"] - d["fuzz.run_baseline"];
            oracle.push_back(std::max(rest, 0.0));
            oracleSum += std::max(rest, 0.0);
        }
        bool backendCalls = false;
        for (auto &[name, v] : dur)
            backendCalls |= name.rfind("baseline.", 0) == 0;

        probes["baseline.driver_share"] = {
            backendCalls ? selfSum["op"] / opNs : 0.0, "ratio"};
        probes["fuzz.oracle_ms"] = {
            median(oracle) / 1e6, "ms"};
        probes["fuzz.oracle_share"] = {oracleSum / opNs, "ratio"};
        const double ops = double(attempted);
        probes["proc.user_ms_per_op"] = {perOp.userMs / ops, "ms"};
        probes["proc.sys_ms_per_op"] = {perOp.sysMs / ops, "ms"};
        probes["proc.minflt_per_op"] = {perOp.minflt / ops, "count/op"};
        probes["trace.overhead_frac"] = {
            (double(spansInOps) * spanCostNs() +
             ops * 2 * rusageCostNs()) /
                opNs,
            "ratio"};

        auto delta = [&](const char *k) {
            return countersAfter[k] - countersBefore[k];
        };
        for (const LayerDef &d : layerDefs()) {
            double v = 0;
            switch (d.kind) {
              case LayerDef::Kind::SpanP50: {
                double scale = std::strcmp(d.unit, "ms") == 0 ? 1e6 : 1e3;
                auto it = dur.find(d.src);
                v = it == dur.end() ? 0.0 : median(it->second) / scale;
                break;
              }
              case LayerDef::Kind::SpanShare:
                v = selfSum.count(d.src) ? selfSum[d.src] / opNs : 0.0;
                break;
              case LayerDef::Kind::PerOp:
                v = delta(d.src) / ops;
                break;
              case LayerDef::Kind::Ratio:
                v = ratio(delta(d.src), delta(d.src) + delta(d.other));
                break;
              case LayerDef::Kind::Quotient:
                v = ratio(delta(d.src), delta(d.other));
                break;
              case LayerDef::Kind::Probe:
                v = probes.at(d.name).value;
                break;
            }
            put(d.name, v, d.unit);
        }
        if (!args.spansOut.empty() && !spans.writeJsonLines(args.spansOut))
            std::fprintf(stderr, "cannot write %s\n",
                         args.spansOut.c_str());
    }

    std::string setupList;
    for (double v : setupS) {
        if (!setupList.empty())
            setupList += ",";
        setupList += jsonNumber(v);
    }
    /* Detail line: what the single-line result cannot carry. */
    std::printf(
        "{\"detail\":{\"workload\":%s,\"seed\":%llu,\"trace\":%d,"
        "\"ops\":%llu,\"window_ops\":%llu,\"window_virtual_ns\":%llu,"
        "\"window_digest\":\"%016llx\",\"tail_percentile\":%s,"
        "\"tail_samples_beyond\":%zu,\"setup_rounds_s\":[%s],"
        "\"host_speed\":{\"nominal_sample_ns\":%s,"
        "\"median_sample_ns\":%s,\"samples\":%zu,\"slowness\":%s,"
        "\"setup_slowness\":%s,"
        "\"raw\":{\"ops_per_s\":%s,\"op_p50_ms\":%s,"
        "\"op_tail_ms\":%s}},"
        "\"env\":{\"backend\":%s,\"tlb\":%s,\"modstore\":%s,"
        "\"parallel_workers\":%u,\"cronus_trace\":%s},"
        "\"error\":%s}}\n",
        jsonString(def->name).c_str(),
        static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(def->windowOps),
        static_cast<unsigned long long>(windowVirtual),
        static_cast<unsigned long long>(windowDigest),
        jsonNumber(raw.tailPct).c_str(), raw.beyond,
        setupList.c_str(), jsonNumber(HostSpeed::kNominalNs).c_str(),
        jsonNumber(median(speed.samples())).c_str(),
        speed.samples().size(), jsonNumber(slowness).c_str(),
        jsonNumber(setupSlowness).c_str(),
        jsonNumber(raw.opsPerS).c_str(), jsonNumber(raw.p50Ms).c_str(),
        jsonNumber(raw.tailMs).c_str(),
        jsonString(cronus::tee::backendName(cronus::tee::resolveBackend(
                       cronus::tee::BackendSelect::Default)))
            .c_str(),
        cronus::hw::TranslationCache::globalEnable() ? "true" : "false",
        std::getenv("CRONUS_DISABLE_MODSTORE") ? "false" : "true",
        cronus::ParallelExecutor::workersFromEnv(),
        cronus::obs::Tracer::envEnabled() ? "true" : "false",
        firstError.empty() ? "null" : jsonString(firstError).c_str());

    const bool correct = failed == 0 && fin.isOk();
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed + (fin.isOk() ? 0 : 1)),
                metricsJson(m, order).c_str());
    std::fflush(stdout);
    /* Skip teardown of the simulated machines: nothing is left to
     * check, and the process exit releases it all. */
    std::_Exit(0);
}
