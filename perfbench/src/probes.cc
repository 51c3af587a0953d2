/**
 * @file
 * Layer counters read through public snapshots, and the crypto and
 * device-memory probes: public crypto:: calls on the workloads' sizes
 * and GpuDevice construction/scrub, timed from outside the program.
 */

#include <sys/resource.h>

#include <algorithm>

#include "accel/gpu.hh"
#include "bench.hh"
#include "core/system.hh"
#include "crypto/aes.hh"
#include "crypto/keys.hh"
#include "crypto/sha256.hh"

namespace perfbench
{

using namespace cronus;

void
addSystemCounters(core::CronusSystem &sys,
                  std::map<std::string, double> &out)
{
    const JsonValue doc = sys.metrics().snapshot();
    const JsonValue &src = doc["sources"];
    auto get = [&src](const char *source, const char *key) {
        const JsonValue &v = src[source][key];
        return v.isInt() ? double(v.asInt()) : 0.0;
    };
    out["world_switches"] += get("monitor", "world_switches");
    out["tlb_hits"] += get("tlb", "hits");
    out["tlb_misses"] += get("tlb", "misses");
    out["tlb_shootdowns"] += get("tlb", "shootdowns");
    out["smmu_hits"] += get("smmu", "hits");
    out["smmu_misses"] += get("smmu", "misses");
    out["bus_bytes_copied"] += get("platform", "bus_bytes_copied");
    out["grants_created"] += get("spm", "grants_created");
    /* The monitor source exports switch counts only; signed
     * attestation reports live in the monitor's own statistics. */
    out["reports_signed"] +=
        double(sys.monitor().statistics().counter("reports_signed").value());
}

namespace
{

/** Run @p fn @p reps times, each call one span named @p name;
 *  returns the median host time of a call in ns. */
template <typename Fn>
double
timed(const char *name, int reps, Fn &&fn)
{
    std::vector<double> ns;
    for (int i = 0; i < reps; ++i) {
        ScopedSpan span(name);
        int64_t t0 = hostNs();
        fn();
        ns.push_back(double(hostNs() - t0));
    }
    return median(std::move(ns));
}

long
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

} // namespace

void
runProbes(Metrics &out)
{
    /* Bignum: the 256-bit group arithmetic behind attestation,
     * Schnorr signatures and DH at placement and boot. */
    Rng rng(0x5eed);
    crypto::KeyPair keys = crypto::generateKeyPair(rng);
    Bytes message(64, 0xa5);
    crypto::Signature sig = crypto::sign(keys.priv, message);
    crypto::U256 exponent = crypto::U256::fromBytesBE(
        crypto::digestToBytes(crypto::sha256(message)));
    volatile bool sink = true;
    out["crypto.powmod_us"] = {
        timed("crypto.powmod", 9,
              [&] {
                  sink = crypto::U256::powMod(crypto::groupGenerator(),
                                              exponent,
                                              crypto::groupPrime()) ==
                         crypto::U256();
              }) / 1e3,
        "us"};
    out["crypto.sign_us"] = {
        timed("crypto.sign", 9,
              [&] { sig = crypto::sign(keys.priv, message); }) / 1e3,
        "us"};
    out["crypto.verify_us"] = {
        timed("crypto.verify", 9,
              [&] { sink = crypto::verify(keys.pub, message, sig); }) /
            1e3,
        "us"};

    /* Sealing: AES-CTR and SHA-256 over one failover checkpoint's
     * worth of data (three 48x48 float matrices). */
    Bytes blob(3 * 48 * 48 * 4);
    rng.fill(blob);
    crypto::Aes128 aes(crypto::aesKeyFromSecret(message));
    const double mb = double(blob.size()) / 1e6;
    out["crypto.aes_ctr_mb_s"] = {
        mb * 1e9 / timed("crypto.aes_ctr", 15,
                         [&] { sink = aes.ctr(blob, 7).empty(); }),
        "MB/s"};
    out["crypto.sha256_mb_s"] = {
        mb * 1e9 / timed("crypto.sha256", 15,
                         [&] { sink = crypto::sha256(blob)[0] == 0; }),
        "MB/s"};
    (void)sink;

    /* Device memory: boot (construct, 64 MiB of VRAM) and scrub
     * (reset with memory clear) of one GPU, and the minor faults a
     * boot takes. */
    std::vector<double> boot, scrub, faults;
    for (int i = 0; i < 5; ++i) {
        long before = minorFaults();
        std::unique_ptr<accel::GpuDevice> gpu;
        boot.push_back(timed("accel.gpu_boot", 1, [&] {
            gpu = std::make_unique<accel::GpuDevice>();
        }));
        faults.push_back(double(minorFaults() - before));
        scrub.push_back(
            timed("accel.gpu_scrub", 1, [&] { gpu->reset(true); }));
    }
    out["accel.gpu_boot_ms"] = {median(boot) / 1e6, "ms"};
    out["accel.gpu_scrub_ms"] = {median(scrub) / 1e6, "ms"};
    out["accel.gpu_boot_minflt"] = {median(faults), "count"};
}

} // namespace perfbench
