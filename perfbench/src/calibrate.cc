#include <map>
#include <memory_resource>

#include "bench.hh"

namespace perfbench
{

namespace
{

constexpr int kInserts = 1500;
constexpr int kLookups = 3000;

volatile uint64_t sink;

/* A small ordered map on a fixed arena: allocation, pointer chasing
 * and data-dependent branches, like the simulator's own bookkeeping,
 * but from a monotonic buffer rather than the global heap so that no
 * allocator change in src/ can move it. */
uint64_t
mapKernel()
{
    static std::vector<std::byte> arena(1 << 20);
    std::pmr::monotonic_buffer_resource pool(
        arena.data(), arena.size(), std::pmr::null_memory_resource());
    std::pmr::map<uint64_t, uint64_t> m(&pool);
    uint64_t x = 7, hits = 0;
    for (int i = 0; i < kInserts; ++i) {
        x = mix64(x);
        m[x >> 52] += uint64_t(i);
    }
    for (int i = 0; i < kLookups; ++i) {
        x = mix64(x);
        hits += m.count(x >> 52);
    }
    return hits + m.size();
}

} // namespace

double
HostSpeed::sample()
{
    /* One untimed pass first: what the program under test left in the
     * caches moved a cold pass by about 5%. */
    sink = mapKernel();
    int64_t t0 = hostNs();
    sink = mapKernel();
    double ns = double(hostNs() - t0);
    all.push_back(ns);
    return ns;
}

double
HostSpeed::slowness() const
{
    double m = median(all);
    return m > 0 ? m / kNominalNs : 1.0;
}

} // namespace perfbench
