/**
 * @file
 * failover: supervised recovery with sealed checkpoints, in Fig. 9's
 * shape. One CronusSystem with two GPUs, a Supervisor, and two
 * ResumableChannel matrix tasks (dim 48, auto-checkpoint every 8
 * calls); operations alternate between the tasks, one task step
 * each. A seeded FaultPlan kills task A's partition at a fixed
 * virtual-time cadence; the step that meets a kill includes the
 * park, the supervised scrub/reboot, the restore and the replay.
 *
 * Each step is matmul + ledger increment + sync. The ledger is a
 * device buffer every step adds 1.0 to, so after every recovery the
 * value read back must equal the number of increments issued: the
 * sealed checkpoint plus the replayed journal extend task A's ledger
 * exactly, never losing or doubling an acked call.
 */

#include <cstring>

#include "accel/builtin_kernels.hh"
#include "bench.hh"
#include "core/auto_partition.hh"
#include "core/system.hh"
#include "inject/injector.hh"
#include "inject/invariant_auditor.hh"
#include "recover/resumable_channel.hh"

namespace perfbench
{

using namespace cronus;
using namespace cronus::core;

namespace
{

constexpr uint64_t kMatrixDim = 48;
constexpr uint64_t kCheckpointEvery = 8;
constexpr uint64_t kLedgerElems = 16;
/** Virtual time task A runs undisturbed between the end of one
 *  recovery and the next planned kill (~430 operations). */
constexpr SimTime kKillCadenceNs = 25 * kNsPerMs;

std::string
gpuManifest(const Bytes &image)
{
    Manifest m;
    m.deviceType = "gpu";
    m.images["mat.cubin"] = crypto::digestHex(crypto::sha256(image));
    for (const auto &fn : CudaRuntime::apiSurface())
        m.mEcalls.push_back({fn, AutoPartitioner::cudaCallIsAsync(fn)});
    m.memoryBytes = 4ull << 20;
    return m.toJson();
}

std::string
cpuManifest(const Bytes &image)
{
    Manifest m;
    m.deviceType = "cpu";
    m.images["pb.so"] = crypto::digestHex(crypto::sha256(image));
    m.mEcalls.push_back({"pb_noop", false});
    m.memoryBytes = 4ull << 20;
    return m.toJson();
}

uint64_t
floatBits(float f)
{
    uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits;
}

/** One matrix task riding a resumable channel to a GPU enclave. */
struct MatrixTask
{
    std::unique_ptr<recover::ResumableChannel> channel;
    uint64_t vaA = 0, vaB = 0, vaC = 0, vaLedger = 0;
    /** Ledger increments accepted by the channel (acked or
     *  journaled for replay). */
    uint64_t increments = 0;

    Status
    start(CronusSystem &sys, recover::Supervisor &sup,
          inject::InvariantAuditor &auditor, AppHandle &caller,
          const std::string &device)
    {
        accel::GpuModuleImage module{
            "mat.cubin", {"matmul_f32", "fill_f32", "saxpy_f32"}};
        recover::CalleeSpec spec;
        spec.image = module.serialize();
        spec.manifestJson = gpuManifest(spec.image);
        spec.imageName = "mat.cubin";
        spec.deviceName = device;
        spec.autoCheckpointEvery = kCheckpointEvery;
        channel = std::make_unique<recover::ResumableChannel>(
            sys, sup, caller, std::move(spec));
        channel->setOnConnect(
            [&auditor](SrpcChannel &c) { auditor.attachChannel(c); });
        CRONUS_RETURN_IF_ERROR(channel->open());

        const uint64_t n = kMatrixDim * kMatrixDim;
        for (auto [va, elems] :
             {std::pair{&vaA, n}, {&vaB, n}, {&vaC, n},
              {&vaLedger, kLedgerElems}}) {
            auto r = call("cuMemAlloc",
                          CudaRuntime::encodeMemAlloc(elems * 4));
            if (!r.isOk())
                return r.status();
            *va = CudaRuntime::decodeU64Result(r.value()).value();
        }
        for (auto [va, elems, value] :
             {std::tuple{vaA, n, 1.0f}, {vaB, n, 1.0f},
              {vaLedger, kLedgerElems, 0.0f}}) {
            auto r = call("cuLaunchKernel",
                          CudaRuntime::encodeLaunchKernel(
                              "fill_f32", {va, elems, floatBits(value)},
                              elems));
            if (!r.isOk())
                return r.status();
        }
        return channel->checkpoint();
    }

    /**
     * Journaled call. A PeerFailed call stays journaled and is
     * replayed into the recovered incarnation, so it is awaited, not
     * re-issued. A call that also sealed an auto-checkpoint (the
     * callee handle's nonce moved) is recorded as
     * recover.checkpoint instead of recover.call.
     */
    Result<Bytes>
    call(const std::string &fn, const Bytes &args)
    {
        SrpcChannel *ring = channel->raw();
        SrpcStats before = ring ? ring->stats() : SrpcStats{};
        Result<Bytes> r = Bytes{};
        {
            ScopedSpan span("recover.call");
            const uint64_t nonce = channel->callee().nonce;
            r = channel->call(fn, args);
            if (r.isOk() && channel->callee().nonce != nonce)
                span.rename("recover.checkpoint");
        }
        if (!r.isOk() && r.code() == ErrorCode::PeerFailed) {
            ScopedSpan span("recover.resume");
            Status s = channel->awaitResume();
            if (!s.isOk())
                return s;
            resumed = true;
            r = Bytes{};
        }
        countRing(ring, before);
        return r;
    }

    /** Ring traffic of the call: a reconnect brings a fresh channel
     *  whose whole history (setup + replay) belongs to this call. */
    void
    countRing(SrpcChannel *ring, const SrpcStats &before)
    {
        SrpcChannel *now = channel->raw();
        if (now == nullptr)
            return;
        const SrpcStats &after = now->stats();
        auto calls = [](const SrpcStats &st) {
            return st.syncCalls + st.asyncCalls;
        };
        bool same = now == ring && calls(after) >= calls(before) &&
                    after.bytesTransferred >= before.bytesTransferred;
        ringCalls += calls(after) - (same ? calls(before) : 0);
        ringBytes += after.bytesTransferred -
                     (same ? before.bytesTransferred : 0);
    }

    /** One step: matmul, ledger += 1, sync. */
    Status
    step(uint64_t &digest_word)
    {
        resumed = false;
        auto launch = call("cuLaunchKernel",
                           CudaRuntime::encodeLaunchKernel(
                               "matmul_f32",
                               {vaA, vaB, vaC, kMatrixDim, kMatrixDim,
                                kMatrixDim},
                               kMatrixDim * kMatrixDim * kMatrixDim));
        if (!launch.isOk())
            return launch.status();
        auto bump = call("cuLaunchKernel",
                         CudaRuntime::encodeLaunchKernel(
                             "saxpy_f32",
                             {floatBits(1.0f), vaA, vaLedger,
                              kLedgerElems},
                             kLedgerElems));
        if (!bump.isOk())
            return bump.status();
        ++increments;
        auto sync = call("cuCtxSynchronize", Bytes{});
        if (!sync.isOk())
            return sync.status();
        digest_word = increments;
        return resumed ? checkLedger() : Status::ok();
    }

    /** Device read; a read that met a kill is replayed into the
     *  recovered incarnation without its result, so read again. */
    Result<Bytes>
    read(uint64_t va, uint64_t len)
    {
        auto r = call("cuMemcpyDtoH",
                      CudaRuntime::encodeMemcpyDtoH(va, len));
        if (r.isOk() && r.value().size() != len)
            r = call("cuMemcpyDtoH",
                     CudaRuntime::encodeMemcpyDtoH(va, len));
        if (r.isOk() && r.value().size() != len)
            return Status(ErrorCode::IntegrityViolation,
                          "short device read");
        return r;
    }

    /** The ledger read back must equal the increments issued, and
     *  the product must still be dim (all-ones operands). */
    Status
    checkLedger()
    {
        auto ledger = read(vaLedger, kLedgerElems * 4);
        if (!ledger.isOk())
            return ledger.status();
        auto product = read(vaC, 4 * 4);
        if (!product.isOk())
            return product.status();
        for (uint64_t i = 0; i < kLedgerElems; ++i) {
            float v = 0.0f;
            std::memcpy(&v, ledger.value().data() + 4 * i, 4);
            if (v != static_cast<float>(increments))
                return Status(ErrorCode::IntegrityViolation,
                              "ledger " + std::to_string(v) +
                                  " != " + std::to_string(increments));
        }
        for (uint64_t i = 0; i < 4; ++i) {
            float v = 0.0f;
            std::memcpy(&v, product.value().data() + 4 * i, 4);
            if (v != static_cast<float>(kMatrixDim))
                return Status(ErrorCode::IntegrityViolation,
                              "matmul result corrupted");
        }
        return Status::ok();
    }

    bool resumed = false;
    uint64_t ringCalls = 0;
    uint64_t ringBytes = 0;
};

class FailoverWorkload : public Workload
{
  public:
    ~FailoverWorkload() override
    {
        /* Channels go before the auditor and the system. */
        injector.reset();
        taskA.channel.reset();
        taskB.channel.reset();
    }

    Status
    setup(uint64_t seed) override
    {
        Logger::instance().setQuiet(true);
        accel::registerBuiltinKernels();
        auto &reg = CpuFunctionRegistry::instance();
        if (!reg.has("pb_noop")) {
            reg.registerFunction("pb_noop", [](CpuCallContext &ctx) {
                (void)ctx.charge(1);
                return Result<Bytes>(Bytes{});
            });
        }
        CronusConfig cfg;
        cfg.numGpus = 2;
        cfg.withNpu = false;
        sys = std::make_unique<CronusSystem>(cfg);

        CpuImage cpu_image;
        cpu_image.exports = {"pb_noop"};
        Bytes cpu_bytes = cpu_image.serialize();
        auto cpu = sys->createEnclave(cpuManifest(cpu_bytes), "pb.so",
                                      cpu_bytes);
        if (!cpu.isOk())
            return cpu.status();
        caller = cpu.value();

        auditor = std::make_unique<inject::InvariantAuditor>();
        auditor->attachSpm(sys->spm());
        recover::SupervisorConfig sup_cfg;
        /* Every planned kill is covered; a constant backoff makes
         * each recovery cost the same. */
        sup_cfg.restartBudget = 1u << 30;
        sup_cfg.backoffFactor = 1;
        supervisor = std::make_unique<recover::Supervisor>(*sys, sup_cfg);
        CRONUS_RETURN_IF_ERROR(
            taskA.start(*sys, *supervisor, *auditor, caller, "gpu0"));
        CRONUS_RETURN_IF_ERROR(
            taskB.start(*sys, *supervisor, *auditor, caller, "gpu1"));

        auto mos = sys->mosForDevice("gpu0");
        if (!mos.isOk())
            return mos.status();
        victim = mos.value()->partitionId();
        planSeed = seed;
        /* Warm-up: a few undisturbed steps of each task. */
        for (uint64_t i = 0; i < 16; ++i)
            CRONUS_RETURN_IF_ERROR(op(i));
        /* The seed shifts the kill phase by under 1/16 of the
         * cadence: where a kill lands within a step and a
         * checkpoint interval varies, the number of kills in the
         * identity window does not. */
        armKill(sys->platform().clock().now() + kKillCadenceNs / 2 +
                mix64(seed) % (kKillCadenceNs / 16));
        return Status::ok();
    }

    Status
    op(uint64_t index) override
    {
        supervisor->pump();
        MatrixTask &task = index % 2 == 0 ? taskA : taskB;
        uint64_t word = 0;
        Status s = task.step(word);
        if (!s.isOk())
            return s;
        if (&task == &taskB &&
            (task.resumed || task.channel->reconnects() != 0))
            return Status(ErrorCode::IntegrityViolation,
                          "task B was disturbed by task A's fault");
        note(word ^ (index << 40));
        note(sys->platform().clock().now());
        if (injector && taskA.channel->reconnects() != armedAtReconnects)
            armKill(sys->platform().clock().now() + kKillCadenceNs);
        return Status::ok();
    }

    SimTime virtualNs() override { return sys->platform().clock().now(); }

    Status
    finish() override
    {
        CRONUS_RETURN_IF_ERROR(taskA.checkLedger());
        CRONUS_RETURN_IF_ERROR(taskB.checkLedger());
        injector.reset();
        taskA.channel.reset();
        taskB.channel.reset();
        (void)auditor->finalCheck();
        if (!auditor->violations().empty())
            return Status(ErrorCode::IntegrityViolation,
                          std::to_string(auditor->violations().size()) +
                              " invariant violation(s): " +
                              auditor->violations().front().invariant);
        return Status::ok();
    }

    void
    counters(std::map<std::string, double> &out) override
    {
        addSystemCounters(*sys, out);
        out["srpc_calls"] += double(taskA.ringCalls + taskB.ringCalls);
        out["srpc_bytes"] += double(taskA.ringBytes + taskB.ringBytes);
        out["replayed_calls"] += double(taskA.channel->replayedCalls());
        out["reconnects"] += double(taskA.channel->reconnects());
    }

  private:
    /** Plan the next kill of task A's partition, due at @p when. */
    void
    armKill(SimTime when)
    {
        injector.reset();
        armedAtReconnects = taskA.channel->reconnects();
        inject::FaultPlan plan(mix64(planSeed ^ when));
        plan.killAtTime(when, victim);
        injector = std::make_unique<inject::FaultInjector>(sys->spm(), plan);
        injector->arm();
    }

    std::unique_ptr<CronusSystem> sys;
    AppHandle caller;
    std::unique_ptr<inject::InvariantAuditor> auditor;
    std::unique_ptr<recover::Supervisor> supervisor;
    MatrixTask taskA, taskB;
    tee::PartitionId victim = 0;
    uint64_t planSeed = 0;
    uint64_t armedAtReconnects = 0;
    std::unique_ptr<inject::FaultInjector> injector;
};

} // namespace

std::unique_ptr<Workload>
makeFailover()
{
    return std::make_unique<FailoverWorkload>();
}

} // namespace perfbench
