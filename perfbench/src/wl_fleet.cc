/**
 * @file
 * fleet: multi-SoC lifecycle on a 4-node CPU-only cluster driven
 * through the synchronous API on the serial engine. The seeded mix is
 * ~85% call, 7% checkpoint, 4% live migration and 4% destroy+place
 * churn; at a fixed operation cadence one node goes through
 * killNode -> pump -> recoverNode and another is drained under a
 * migration budget that covers its residents.
 *
 * The benchmark keeps a fig12-style acked-call ledger: every acked
 * accumulate call's returned total must extend the expected running
 * total of its enclave, across node kills, drains and migrations.
 */

#include <algorithm>

#include "bench.hh"
#include "cluster/cluster.hh"
#include "core/manifest.hh"

namespace perfbench
{

using namespace cronus;
using namespace cronus::cluster;

namespace
{

constexpr uint32_t kNodes = 4;
constexpr uint32_t kEnclaves = 24;
/** One node cycle and one drain per this many operations. */
constexpr uint64_t kMaintenanceEvery = 4000;
/** The mix is dealt from a shuffled deck of 100 operations:
 *  85 calls, 7 checkpoints, 4 migrations, 4 churns. */
constexpr uint64_t kDeck = 100;
enum class FleetOp
{
    Call,
    Checkpoint,
    Migrate,
    Churn,
};
constexpr uint64_t kEnclaveQuota = 256ull << 10;

void
registerAccumulate()
{
    auto &reg = core::CpuFunctionRegistry::instance();
    if (reg.has("pb_acc"))
        return;
    reg.registerFunction("pb_acc", [](core::CpuCallContext &ctx) {
        ByteReader r(ctx.args);
        auto delta = r.getU64();
        if (!delta.isOk())
            return Result<Bytes>(delta.status());
        uint64_t total = delta.value();
        auto it = ctx.store.find("total");
        if (it != ctx.store.end()) {
            ByteReader prev(it->second);
            total += prev.getU64().value();
        }
        ByteWriter w;
        w.putU64(total);
        ctx.store["total"] = w.data();
        (void)ctx.charge(50);
        return Result<Bytes>(w.take());
    });
}

Bytes
accImage()
{
    core::CpuImage image;
    image.exports = {"pb_acc"};
    return image.serialize();
}

std::string
accManifest()
{
    core::Manifest m;
    m.deviceType = "cpu";
    m.images["pb_acc.so"] = crypto::digestHex(crypto::sha256(accImage()));
    m.mEcalls = {{"pb_acc", false}};
    m.memoryBytes = kEnclaveQuota;
    return m.toJson();
}

class FleetWorkload : public Workload
{
  public:
    Status
    setup(uint64_t seed) override
    {
        Logger::instance().setQuiet(true);
        registerAccumulate();
        rng = Rng(mix64(seed));
        manifest = accManifest();
        image = accImage();

        ClusterConfig cc;
        cc.numNodes = kNodes;
        cc.nodeSystem.numGpus = 0;
        cc.nodeSystem.withNpu = false;
        cc.nodeSystem.partitionMemBytes = 128ull << 20;
        cc.parallelWorkers = 0;
        cl = std::make_unique<Cluster>(cc);
        for (uint32_t i = 0; i < kEnclaves; ++i) {
            auto fid = place();
            if (!fid.isOk())
                return fid.status();
            fids.push_back(fid.value());
        }
        /* Warm-up: one acked call per enclave. */
        for (Fid fid : fids)
            CRONUS_RETURN_IF_ERROR(call(fid, 1));
        return Status::ok();
    }

    Status
    op(uint64_t index) override
    {
        if (index % kMaintenanceEvery == kMaintenanceEvery - 1)
            return nodeCycle(NodeId((index / kMaintenanceEvery) % kNodes));
        if (index % kMaintenanceEvery == kMaintenanceEvery / 2 - 1)
            return drain(NodeId((index / kMaintenanceEvery + 2) % kNodes));

        if (dealt == kDeck)
            shuffle();
        const FleetOp kind = deck[dealt++];
        const size_t slot = rng.nextBelow(fids.size());
        const Fid fid = fids[slot];
        switch (kind) {
          case FleetOp::Call:
            return call(fid, 1 + rng.nextBelow(100));
          case FleetOp::Checkpoint: {
            ScopedSpan span("cluster.checkpoint");
            return cl->checkpoint(fid);
          }
          case FleetOp::Migrate:
            return migrate(fid, rng.nextBelow(kNodes - 1));
          case FleetOp::Churn:
            return churn(slot);
        }
        return Status::ok();
    }

    SimTime virtualNs() override { return cl->clock().now(); }

    Status
    finish() override
    {
        for (Fid fid : fids) {
            if (!cl->enclaveAlive(fid))
                return Status(ErrorCode::IntegrityViolation,
                              "enclave " + std::to_string(fid) +
                                  " dead at end of run");
            CRONUS_RETURN_IF_ERROR(call(fid, 1));
        }
        for (const MigrationAudit &m : cl->migrations()) {
            if (m.src != m.dst && !m.converged())
                return Status(ErrorCode::IntegrityViolation,
                              "migration " + std::to_string(m.seq) +
                                  " did not converge");
        }
        return Status::ok();
    }

    void
    counters(std::map<std::string, double> &out) override
    {
        for (uint32_t n = 0; n < kNodes; ++n)
            addSystemCounters(cl->node(n).system(), out);
        out["migrations_completed"] += double(cl->migrationsCompleted);
        out["migrations_aborted"] += double(cl->migrationsAborted);
        out["link_bytes"] += double(cl->interconnect().bytesMoved);
    }

  private:
    void
    shuffle()
    {
        deck.clear();
        for (auto [kind, count] :
             {std::pair{FleetOp::Call, 85}, {FleetOp::Checkpoint, 7},
              {FleetOp::Migrate, 4}, {FleetOp::Churn, 4}})
            deck.insert(deck.end(), count, kind);
        for (size_t i = deck.size() - 1; i > 0; --i)
            std::swap(deck[i], deck[rng.nextBelow(i + 1)]);
        dealt = 0;
    }

    Result<Fid>
    place()
    {
        ScopedSpan span("cluster.place");
        auto fid = cl->placeEnclave(manifest, "pb_acc.so", image);
        if (fid.isOk())
            ledger[fid.value()] = 0;
        return fid;
    }

    /** One acked call; its total must extend the ledger exactly. */
    Status
    call(Fid fid, uint64_t delta)
    {
        ByteWriter w;
        w.putU64(delta);
        Result<Bytes> r = Bytes{};
        {
            ScopedSpan span("cluster.call");
            r = cl->call(fid, "pb_acc", w.take());
        }
        if (!r.isOk())
            return r.status();
        uint64_t &expected = ledger[fid];
        expected += delta;
        ByteReader rd(r.value());
        auto total = rd.getU64();
        if (!total.isOk() || total.value() != expected)
            return Status(ErrorCode::IntegrityViolation,
                          "acked-call ledger broken for enclave " +
                              std::to_string(fid));
        note(total.value() ^ (uint64_t(fid) << 48));
        note(cl->clock().now());
        return Status::ok();
    }

    Status
    migrate(Fid fid, uint64_t pick)
    {
        auto src = cl->nodeOf(fid);
        if (!src.isOk())
            return src.status();
        NodeId dst = NodeId(pick >= src.value() ? pick + 1 : pick);
        {
            ScopedSpan span("cluster.migrate");
            CRONUS_RETURN_IF_ERROR(cl->migrateEnclave(fid, dst));
        }
        return alive(fid);
    }

    /** Destroy one enclave and place a fresh one in its slot. */
    Status
    churn(size_t slot)
    {
        {
            ScopedSpan span("cluster.destroy");
            CRONUS_RETURN_IF_ERROR(cl->destroyEnclave(fids[slot]));
        }
        ledger.erase(fids[slot]);
        auto fid = place();
        if (!fid.isOk())
            return fid.status();
        fids[slot] = fid.value();
        return Status::ok();
    }

    Status
    nodeCycle(NodeId node)
    {
        {
            ScopedSpan span("cluster.node_cycle");
            CRONUS_RETURN_IF_ERROR(cl->killNode(node));
            cl->pump();
            CRONUS_RETURN_IF_ERROR(cl->recoverNode(node));
        }
        return allAlive();
    }

    Status
    drain(NodeId node)
    {
        DrainBudget budget;
        budget.maxMigrations =
            static_cast<uint32_t>(cl->enclavesOn(node).size());
        {
            ScopedSpan span("cluster.drain");
            CRONUS_RETURN_IF_ERROR(cl->drainNode(node, budget));
        }
        if (!cl->enclavesOn(node).empty())
            return Status(ErrorCode::IntegrityViolation,
                          "drain left enclaves behind");
        return allAlive();
    }

    Status
    alive(Fid fid)
    {
        if (!cl->enclaveAlive(fid))
            return Status(ErrorCode::IntegrityViolation,
                          "enclave " + std::to_string(fid) + " lost");
        return Status::ok();
    }

    Status
    allAlive()
    {
        for (Fid fid : fids)
            CRONUS_RETURN_IF_ERROR(alive(fid));
        return Status::ok();
    }

    Rng rng;
    std::vector<FleetOp> deck;
    uint64_t dealt = kDeck;
    std::string manifest;
    Bytes image;
    std::unique_ptr<Cluster> cl;
    std::vector<Fid> fids;
    std::map<Fid, uint64_t> ledger;
};

} // namespace

std::unique_ptr<Workload>
makeFleet()
{
    return std::make_unique<FleetWorkload>();
}

} // namespace perfbench
