/**
 * @file
 * Whole-system simulation: CPU trace -> hierarchy -> CPU model.
 */

#ifndef GIPPR_SIM_SYSTEM_HH_
#define GIPPR_SIM_SYSTEM_HH_

#include <vector>

#include "cache/hierarchy.hh"
#include "sim/cpu_model.hh"
#include "sim/policy_zoo.hh"
#include "trace/simpoint.hh"
#include "trace/trace.hh"

namespace gippr
{

/** Result of simulating one trace segment under one LLC policy. */
struct SimResult
{
    double ipc = 0.0;
    uint64_t instructions = 0;
    double cycles = 0.0;
    /** LLC demand misses in the measured region. */
    uint64_t llcMisses = 0;
    /** LLC demand misses per kilo-instruction. */
    double llcMpki = 0.0;
    /** Full LLC statistics for the measured region. */
    CacheStats llcStats;
};

/** System-level simulation parameters. */
struct SystemParams
{
    HierarchyConfig hier;
    CpuParams cpu;
    /** Fraction of each trace used to warm caches before measuring. */
    double warmupFraction = 1.0 / 3.0;
};

/**
 * Simulate @p cpu_trace end to end with @p llc_policy in the LLC
 * (L1/L2 use true LRU, as in the paper's CMP$im setup).
 */
SimResult simulateTrace(const Trace &cpu_trace,
                        const PolicyFactory &llc_policy,
                        const SystemParams &params);

/**
 * Simulate every simpoint of @p workload and combine per-simpoint IPC
 * and MPKI with the SimPoint weights (the paper's per-benchmark
 * reporting rule).
 */
SimResult simulateWorkload(const Workload &workload,
                           const PolicyFactory &llc_policy,
                           const SystemParams &params);

/**
 * simulateWorkload() for every policy of @p policies, bit-identical
 * to calling it once per policy, with the L1/L2 simulated once per
 * simpoint.  L1 and L2 run LRU and, in a non-inclusive hierarchy,
 * never see the LLC's decisions, so one filter pass records for each
 * CPU reference the level that supplies it and the L2 writebacks it
 * sends down; each policy then replays only its LLC, feeding the
 * outcomes straight to the CPU model.  Policies whose fastSpec the
 * packed model supports at this LLC geometry replay on
 * fastpath::SoaCacheModel, the rest on a SetAssocCache built by their
 * factory.  An inclusive LLC back-invalidates the levels above, so
 * there every policy runs simulateWorkload() itself.
 *
 * @return one result per policy, in @p policies order
 */
std::vector<SimResult>
simulateWorkloadPolicies(const Workload &workload,
                         const std::vector<PolicyDef> &policies,
                         const SystemParams &params);

/** A PolicyFactory building true LRU (for L1/L2 and baselines). */
PolicyFactory lruFactory();

} // namespace gippr

#endif // GIPPR_SIM_SYSTEM_HH_
