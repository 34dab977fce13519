/**
 * @file
 * System simulation implementation.
 */

#include "sim/system.hh"

#include <memory>

#include "policies/lru.hh"
#include "sim/fastpath/soa_cache.hh"
#include "util/check.hh"

namespace gippr
{

PolicyFactory
lruFactory()
{
    return [](const CacheConfig &cfg) {
        return std::make_unique<LruPolicy>(cfg);
    };
}

namespace
{

/** SimResult of one simulated segment from its CPU and LLC state. */
SimResult
resultOf(const CpuModel &cpu, const CacheStats &llc_stats)
{
    SimResult result;
    result.ipc = cpu.ipc();
    result.instructions = cpu.instructions();
    result.cycles = cpu.cycles();
    result.llcStats = llc_stats;
    result.llcMisses = result.llcStats.demandMisses;
    result.llcMpki = result.llcStats.mpki(result.instructions);
    return result;
}

/** simulateTrace's warmup boundary for a segment of @p records. */
size_t
warmupIndex(size_t records, const SystemParams &params)
{
    return static_cast<size_t>(static_cast<double>(records) *
                               params.warmupFraction);
}

/**
 * Combine per-simpoint results with the SimPoint weights: IPC and
 * MPKI are weighted means, counts are sums.
 */
SimResult
combineSimpoints(const Workload &workload,
                 const std::vector<SimResult> &per_simpoint)
{
    std::vector<double> ipcs, mpkis;
    SimResult combined;
    for (const SimResult &r : per_simpoint) {
        ipcs.push_back(r.ipc);
        mpkis.push_back(r.llcMpki);
        combined.instructions += r.instructions;
        combined.cycles += r.cycles;
        combined.llcMisses += r.llcMisses;
    }
    combined.ipc = workload.combine(ipcs);
    combined.llcMpki = workload.combine(mpkis);
    return combined;
}

/**
 * What the L1/L2 pass leaves for the LLC replays of one simpoint: per
 * CPU reference one byte holding the HitLevel it got above the LLC
 * (L1, L2, or Llc when it goes on to the LLC) in its low bits and the
 * number of L2 writebacks it sends to the LLC (0-2) above
 * kWritebackShift, plus those writebacks' byte addresses in issue
 * order.  Demand LLC accesses re-read address, pc and type from the
 * CPU record.
 */
struct FilteredSimpoint
{
    std::vector<uint8_t> outcomes;
    std::vector<uint64_t> writebacks;
};

constexpr unsigned kWritebackShift = 2;
constexpr uint8_t kLevelMask = (1u << kWritebackShift) - 1;
static_assert(static_cast<unsigned>(HitLevel::Llc) <= kLevelMask);

FilteredSimpoint
filterSimpoint(const Trace &cpu_trace, const HierarchyConfig &config)
{
    SetAssocCache l1(config.l1, lruFactory()(config.l1));
    SetAssocCache l2(config.l2, lruFactory()(config.l2));
    FilteredSimpoint filtered;
    filtered.outcomes.reserve(cpu_trace.size());
    for (const MemRecord &rec : cpu_trace.records()) {
        unsigned writebacks = 0;
        const HitLevel level = Hierarchy::filterAccess(
            l1, l2, rec, [&](uint64_t addr, uint64_t, AccessType type) {
                if (type == AccessType::Writeback) {
                    filtered.writebacks.push_back(addr);
                    ++writebacks;
                }
            });
        filtered.outcomes.push_back(static_cast<uint8_t>(
            static_cast<unsigned>(level) | writebacks << kWritebackShift));
    }
    return filtered;
}

// The LLC models the replay loop is instantiated on.
bool
llcHit(SetAssocCache &llc, uint64_t addr, AccessType type, uint64_t pc)
{
    return llc.access(addr, type, pc).hit;
}

bool
llcHit(fastpath::SoaCacheModel &llc, uint64_t addr, AccessType type,
       uint64_t)
{
    return llc.accessAddr(addr, type).hit;
}

void
markWarmup(SetAssocCache &llc)
{
    llc.clearStats();
}

void
markWarmup(fastpath::SoaCacheModel &llc)
{
    llc.markWarmup();
}

CacheStats
measuredStats(const SetAssocCache &llc)
{
    return llc.stats();
}

CacheStats
measuredStats(const fastpath::SoaCacheModel &llc)
{
    return llc.stats().toCacheStats();
}

/**
 * simulateTrace() with the L1/L2 already simulated: replays
 * @p filtered's LLC accesses on @p llc in the order Hierarchy::access
 * issues them (a reference's writebacks, then its demand access) and
 * steps the CPU model with each reference's supplying level.
 */
template <typename Llc>
SimResult
replayFiltered(const Trace &cpu_trace, const FilteredSimpoint &filtered,
               Llc &llc, const SystemParams &params)
{
    CpuModel cpu(params.cpu);
    const size_t warmup = warmupIndex(cpu_trace.size(), params);
    size_t next_writeback = 0;
    for (size_t i = 0; i < cpu_trace.size(); ++i) {
        if (i == warmup) {
            markWarmup(llc);
            cpu.clearStats();
        }
        const MemRecord &r = cpu_trace[i];
        const uint8_t outcome = filtered.outcomes[i];
        for (unsigned w = outcome >> kWritebackShift; w != 0; --w)
            llcHit(llc, filtered.writebacks[next_writeback++],
                   AccessType::Writeback, 0);
        HitLevel level = static_cast<HitLevel>(outcome & kLevelMask);
        if (level == HitLevel::Llc &&
            !llcHit(llc, r.addr,
                    r.isWrite ? AccessType::Store : AccessType::Load,
                    r.pc))
            level = HitLevel::Memory;
        cpu.step(r.instGap, level);
    }
    GIPPR_CHECK(next_writeback == filtered.writebacks.size());
    cpu.drain();
    return resultOf(cpu, measuredStats(llc));
}

} // namespace

SimResult
simulateTrace(const Trace &cpu_trace, const PolicyFactory &llc_policy,
              const SystemParams &params)
{
    Hierarchy hier(params.hier, lruFactory(), lruFactory(), llc_policy);
    CpuModel cpu(params.cpu);

    const size_t warmup = warmupIndex(cpu_trace.size(), params);

    for (size_t i = 0; i < cpu_trace.size(); ++i) {
        if (i == warmup) {
            hier.clearStats();
            cpu.clearStats();
        }
        const MemRecord &r = cpu_trace[i];
        HitLevel level = hier.access(r.addr, r.isWrite, r.pc);
        cpu.step(r.instGap, level);
    }
    cpu.drain();
    return resultOf(cpu, hier.llc().stats());
}

SimResult
simulateWorkload(const Workload &workload,
                 const PolicyFactory &llc_policy,
                 const SystemParams &params)
{
    std::vector<SimResult> per_simpoint;
    for (const Simpoint &sp : workload.simpoints())
        per_simpoint.push_back(simulateTrace(*sp.trace, llc_policy, params));
    return combineSimpoints(workload, per_simpoint);
}

std::vector<SimResult>
simulateWorkloadPolicies(const Workload &workload,
                         const std::vector<PolicyDef> &policies,
                         const SystemParams &params)
{
    std::vector<SimResult> results;
    results.reserve(policies.size());
    if (params.hier.inclusiveLlc) {
        for (const PolicyDef &p : policies)
            results.push_back(simulateWorkload(workload, p.make, params));
        return results;
    }

    const CacheConfig &llc = params.hier.llc;
    std::vector<std::vector<SimResult>> per_simpoint(policies.size());
    for (const Simpoint &sp : workload.simpoints()) {
        const FilteredSimpoint filtered =
            filterSimpoint(*sp.trace, params.hier);
        for (size_t p = 0; p < policies.size(); ++p) {
            const PolicyDef &def = policies[p];
            if (def.fastSpec &&
                fastpath::SoaCacheModel::supports(*def.fastSpec, llc)) {
                fastpath::SoaCacheModel model(*def.fastSpec, llc);
                per_simpoint[p].push_back(
                    replayFiltered(*sp.trace, filtered, model, params));
            } else {
                SetAssocCache cache(llc, def.make(llc));
                per_simpoint[p].push_back(
                    replayFiltered(*sp.trace, filtered, cache, params));
            }
        }
    }
    for (const std::vector<SimResult> &r : per_simpoint)
        results.push_back(combineSimpoints(workload, r));
    return results;
}

} // namespace gippr
