/**
 * @file
 * fuzz: fresh-machine churn under oracles. Each operation is
 * fuzzScenario(generateScenario(s_i)) on a classic single-SoC
 * scenario; every oracle must be OK.
 *
 * Scenario seeds are derived from the workload seed and stratified
 * over the generator's machine shape -- GPU count (0-2) x NPU (0/1) x
 * fault count (0-2), eighteen equally likely strata -- visited in a
 * seeded order per cycle of eighteen. Operation cost is dominated by
 * how many machines a scenario boots, so stratifying keeps the
 * sampled mix equal to the generator's own distribution in every run
 * instead of leaving it to chance over a few dozen operations.
 */

#include "bench.hh"
#include "fuzz/fuzz.hh"

namespace perfbench
{

using namespace cronus;

namespace
{

constexpr uint64_t kStrata = 3 * 2 * 3;

uint64_t
stratumOf(const fuzz::Scenario &sc)
{
    return sc.numGpus * 6 + (sc.withNpu ? 3 : 0) +
           std::min<uint64_t>(sc.faults.size(), 2);
}

class FuzzWorkload : public Workload
{
  public:
    Status
    setup(uint64_t seed) override
    {
        Logger::instance().setQuiet(true);
        workloadSeed = seed;
        /* Warm-up: one scenario of the heaviest stratum (two GPUs,
         * NPU, faults, so two machine boots) from a fixed seed
         * stream apart from the run's own. */
        uint64_t warm = 0;
        while (stratumOf(fuzz::generateScenario(++warm)) != kStrata - 1)
            ;
        auto rep = fuzz::fuzzScenario(fuzz::generateScenario(warm));
        if (!rep.ok)
            return Status(ErrorCode::IntegrityViolation,
                          "warm-up scenario failed its oracles");
        return Status::ok();
    }

    void
    prepare(uint64_t index) override
    {
        if (index % kStrata == 0) {
            order.resize(kStrata);
            for (uint64_t i = 0; i < kStrata; ++i)
                order[i] = i;
            uint64_t x = mix64(workloadSeed ^ mix64(index));
            for (size_t i = kStrata - 1; i > 0; --i) {
                x = mix64(x);
                std::swap(order[i], order[x % (i + 1)]);
            }
        }
        const uint64_t want = order[index % kStrata];
        do {
            scenarioSeed = mix64(workloadSeed ^ (++draws << 20));
        } while (stratumOf(fuzz::generateScenario(scenarioSeed)) != want);
    }

    Status
    op(uint64_t index) override
    {
        (void)index;
        {
            ScopedSpan span("fuzz.generate");
            scenario = fuzz::generateScenario(scenarioSeed);
        }
        fuzz::FuzzReport rep;
        {
            ScopedSpan span("fuzz.scenario");
            rep = fuzz::fuzzScenario(scenario);
        }
        const JsonValue &end = rep.trace["end_time_ns"];
        const SimTime endNs = end.isInt() ? SimTime(end.asInt()) : 0;
        charged += endNs;
        note(endNs ^ (scenarioSeed << 1) ^ (rep.ok ? 1 : 0));
        if (!rep.ok)
            return Status(ErrorCode::IntegrityViolation,
                          "seed " + std::to_string(scenarioSeed) +
                              ": oracle '" +
                              (rep.failures.empty()
                                   ? std::string("?")
                                   : rep.failures.front().oracle) +
                              "' failed");
        return Status::ok();
    }

    /**
     * Traced run only: replay the parts fuzzScenario is made of on
     * the same scenario -- reference model, faulted run, fault-free
     * baseline run -- so the operation's time can be split by layer.
     */
    void
    traceProbe(uint64_t index) override
    {
        (void)index;
        {
            ScopedSpan span("fuzz.reference");
            (void)fuzz::referenceRun(scenario);
        }
        fuzz::RunOptions faulted;
        faulted.withFaults = true;
        {
            ScopedSpan span("fuzz.run_faulted");
            (void)fuzz::runScenario(scenario, faulted);
        }
        if (!scenario.faults.empty()) {
            fuzz::RunOptions clean;
            clean.withFaults = false;
            ScopedSpan span("fuzz.run_baseline");
            (void)fuzz::runScenario(scenario, clean);
        }
    }

    /** Virtual time of the faulted runs' machines, summed. */
    SimTime virtualNs() override { return charged; }

    Status finish() override { return Status::ok(); }

    void
    counters(std::map<std::string, double> &out) override
    {
        (void)out;
    }

  private:
    uint64_t workloadSeed = 0;
    uint64_t draws = 0;
    uint64_t scenarioSeed = 0;
    std::vector<uint64_t> order;
    fuzz::Scenario scenario;
    SimTime charged = 0;
};

} // namespace

std::unique_ptr<Workload>
makeFuzz()
{
    return std::make_unique<FuzzWorkload>();
}

} // namespace perfbench
