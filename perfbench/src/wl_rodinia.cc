/**
 * @file
 * rodinia: steady-state GPU offload on one long-lived CRONUS backend
 * (CPU mEnclave -> GPU mEnclave over sRPC), one runRodinia call per
 * operation at Fig. 7's size, the nine benchmarks cycled in a seeded
 * order.
 *
 * runRodinia never frees its device buffers, so on one long-lived
 * backend ~1.1k calls exhaust the 64 MiB of VRAM. The benchmark talks
 * to the backend through TrackingBackend, which records every
 * gpuAlloc and frees what is still live after each operation; the
 * same forwarder times the baseline.* spans.
 *
 * Freed that way, every operation gets the same device addresses, so
 * a whole run sees one placement of the kernels' arrays in host
 * memory. The host speed of hotspot and srad, the two slowest
 * kernels, depends on that placement by 30 to 50% from run to run,
 * unlike the other seven. So every kLayoutEvery operations, untimed,
 * the benchmark re-places a seeded pad buffer of 1 to 256 pages in
 * front of them, and one run averages over hundreds of placements.
 * The pad's virtual time and layer counters are taken out of what the
 * workload reports.
 */

#include <algorithm>

#include "baseline/cronus_backend.hh"
#include "bench.hh"
#include "workloads/rodinia.hh"

namespace perfbench
{

using namespace cronus;

namespace
{

constexpr uint64_t kLayoutEvery = 64;
constexpr uint64_t kPadPages = 256;

/** ComputeBackend forwarder: leak guard + baseline.* spans. */
class TrackingBackend : public baseline::ComputeBackend
{
  public:
    explicit TrackingBackend(baseline::ComputeBackend &inner) : b(inner)
    {
    }

    std::string name() const override { return b.name(); }
    bool isProtected() const override { return b.isProtected(); }

    Result<uint64_t>
    gpuAlloc(uint64_t bytes) override
    {
        ScopedSpan span("baseline.alloc_free");
        auto va = b.gpuAlloc(bytes);
        if (va.isOk())
            live.push_back(va.value());
        return va;
    }

    Status
    gpuFree(uint64_t va) override
    {
        ScopedSpan span("baseline.alloc_free");
        auto it = std::find(live.begin(), live.end(), va);
        if (it != live.end())
            live.erase(it);
        return b.gpuFree(va);
    }

    Status
    copyToGpu(uint64_t va, const Bytes &data) override
    {
        ScopedSpan span("baseline.h2d");
        return b.copyToGpu(va, data);
    }

    Result<Bytes>
    copyFromGpu(uint64_t va, uint64_t len) override
    {
        ScopedSpan span("baseline.d2h");
        return b.copyFromGpu(va, len);
    }

    Status
    launchKernel(const std::string &kernel,
                 const std::vector<uint64_t> &args,
                 uint64_t work_items) override
    {
        ScopedSpan span("baseline.launch");
        return b.launchKernel(kernel, args, work_items);
    }

    Status
    gpuSynchronize() override
    {
        ScopedSpan span("baseline.sync");
        return b.gpuSynchronize();
    }

    Result<uint32_t>
    npuAllocBuffer(uint64_t bytes) override
    {
        return b.npuAllocBuffer(bytes);
    }
    Status
    npuWriteBuffer(uint32_t buffer, uint64_t offset,
                   const Bytes &data) override
    {
        return b.npuWriteBuffer(buffer, offset, data);
    }
    Result<Bytes>
    npuReadBuffer(uint32_t buffer, uint64_t offset,
                  uint64_t len) override
    {
        return b.npuReadBuffer(buffer, offset, len);
    }
    Status
    npuRun(const accel::NpuProgram &program) override
    {
        return b.npuRun(program);
    }
    Status cpuWork(uint64_t work_units) override
    {
        return b.cpuWork(work_units);
    }
    SimTime now() const override { return b.now(); }
    Status injectGpuFault() override { return b.injectGpuFault(); }
    Result<SimTime> recoverGpu() override { return b.recoverGpu(); }
    bool othersAlive() override { return b.othersAlive(); }

    /** Free every buffer the last operation left allocated. */
    Status
    releaseAll()
    {
        while (!live.empty())
            CRONUS_RETURN_IF_ERROR(gpuFree(live.back()));
        return Status::ok();
    }

  private:
    baseline::ComputeBackend &b;
    std::vector<uint64_t> live;
};

class RodiniaWorkload : public Workload
{
  public:
    Status
    setup(uint64_t seed) override
    {
        workloadSeed = seed;
        workloads::registerRodiniaKernels();
        baseline::CronusBackendConfig cfg;
        cfg.gpuKernels = workloads::rodiniaKernelNames();
        backend = std::make_unique<baseline::CronusBackend>(cfg);
        tracker = std::make_unique<TrackingBackend>(*backend);
        /* Warm-up: boot the channels and touch every benchmark's
         * kernels once before timing. */
        for (const std::string &name : workloads::rodiniaBenchmarks())
            CRONUS_RETURN_IF_ERROR(runOne(name));
        return Status::ok();
    }

    void
    prepare(uint64_t index) override
    {
        if (index % kLayoutEvery != 0)
            return;
        std::map<std::string, double> before, after;
        systemCounters(before);
        const SimTime v0 = backend->now();
        if (pad != 0)
            (void)backend->gpuFree(pad);
        auto va = backend->gpuAlloc(
            (1 + mix64(workloadSeed ^ index) % kPadPages) * 4096);
        pad = va.isOk() ? va.value() : 0;
        padVirtualNs += backend->now() - v0;
        systemCounters(after);
        for (const auto &[k, v] : after)
            padCounters[k] += v - before[k];
    }

    Status
    op(uint64_t index) override
    {
        const auto &names = workloads::rodiniaBenchmarks();
        if (index % names.size() == 0) {
            /* A fresh seeded permutation per cycle of nine. */
            order = names;
            uint64_t x = mix64(workloadSeed ^ mix64(index));
            for (size_t i = order.size() - 1; i > 0; --i) {
                x = mix64(x);
                std::swap(order[i], order[x % (i + 1)]);
            }
        }
        return runOne(order[index % names.size()]);
    }

    SimTime
    virtualNs() override
    {
        return backend->now() - padVirtualNs;
    }

    Status finish() override { return tracker->releaseAll(); }

    void
    counters(std::map<std::string, double> &out) override
    {
        systemCounters(out);
        for (const auto &[k, v] : padCounters)
            out[k] -= v;
    }

  private:
    void
    systemCounters(std::map<std::string, double> &out)
    {
        addSystemCounters(backend->system(), out);
        if (const core::SrpcStats *st = backend->gpuChannelStats()) {
            out["srpc_calls"] +=
                double(st->syncCalls + st->asyncCalls);
            out["srpc_bytes"] += double(st->bytesTransferred);
        }
    }

    Status
    runOne(const std::string &name)
    {
        workloads::RodiniaSize size;
        size.scale = 160;
        size.iterations = 8;
        auto r = workloads::runRodinia(*tracker, name, size);
        Status released = tracker->releaseAll();
        if (!r.isOk())
            return r.status();
        CRONUS_RETURN_IF_ERROR(released);
        if (!r.value().verified)
            return Status(ErrorCode::IntegrityViolation,
                          name + ": device result not verified");
        note(r.value().computeTimeNs);
        return Status::ok();
    }

    uint64_t workloadSeed = 0;
    std::unique_ptr<baseline::CronusBackend> backend;
    std::unique_ptr<TrackingBackend> tracker;
    std::vector<std::string> order;
    uint64_t pad = 0;
    SimTime padVirtualNs = 0;
    std::map<std::string, double> padCounters;
};

} // namespace

std::unique_ptr<Workload>
makeRodinia()
{
    return std::make_unique<RodiniaWorkload>();
}

} // namespace perfbench
