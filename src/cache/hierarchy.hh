/**
 * @file
 * Three-level cache hierarchy (L1D -> L2 -> LLC).
 *
 * The hierarchy plays two roles, mirroring the paper's methodology:
 *
 *  1. In the performance simulator it services each CPU reference and
 *     reports which level supplied the data, so the CPU model can apply
 *     per-level latencies.  access() is the reference form; the perf
 *     experiments run L1/L2 once through filterAccess() and replay
 *     only the LLC per policy (simulateWorkloadPolicies).
 *  2. As a *filter*: the paper's traces contain only the references
 *     that survive the L1/L2 and reach the LLC.  filterToLlc() runs a
 *     CPU-level trace through L1+L2 and emits the resulting LLC access
 *     stream, which the GA fitness function and the offline MIN
 *     simulator consume.
 *
 * The hierarchy is non-inclusive and writeback; dirty evictions cascade
 * down as Writeback accesses.
 */

#ifndef GIPPR_CACHE_HIERARCHY_HH_
#define GIPPR_CACHE_HIERARCHY_HH_

#include <functional>
#include <memory>

#include "cache/cache.hh"
#include "trace/trace.hh"

namespace gippr
{

/** Where a demand reference was satisfied. */
enum class HitLevel : uint8_t { L1, L2, Llc, Memory };

/** Factory that builds a replacement policy for a given geometry. */
using PolicyFactory =
    std::function<std::unique_ptr<ReplacementPolicy>(const CacheConfig &)>;

/** Configuration for the full hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1 = CacheConfig::paperL1d();
    CacheConfig l2 = CacheConfig::paperL2();
    CacheConfig llc = CacheConfig::paperLlc();
    /**
     * Enforce LLC inclusion: evicting an LLC line back-invalidates it
     * from the L1 and L2 above.  The paper notes inclusion is why
     * PDP's bypass mode is unusable in inclusive designs; with this
     * flag the hierarchy maintains the invariant (and the policy's
     * shouldBypass must stay false — a bypassed fill would violate
     * it, so bypass requests are ignored in inclusive mode by virtue
     * of the LLC being filled before the upper levels here).
     */
    bool inclusiveLlc = false;
};

/** L1D -> L2 -> LLC with pluggable per-level replacement. */
class Hierarchy
{
  public:
    /**
     * @param config      per-level geometries
     * @param l1_policy   factory for the L1 policy (typically LRU)
     * @param l2_policy   factory for the L2 policy (typically LRU)
     * @param llc_policy  factory for the LLC policy under study
     */
    Hierarchy(const HierarchyConfig &config, const PolicyFactory &l1_policy,
              const PolicyFactory &l2_policy,
              const PolicyFactory &llc_policy);

    /** Service one demand reference; returns the supplying level. */
    HitLevel access(uint64_t byte_addr, bool is_write, uint64_t pc = 0);

    SetAssocCache &l1() { return *l1_; }
    SetAssocCache &l2() { return *l2_; }
    SetAssocCache &llc() { return *llc_; }
    const SetAssocCache &l1() const { return *l1_; }
    const SetAssocCache &l2() const { return *l2_; }
    const SetAssocCache &llc() const { return *llc_; }

    /** Clear statistics at every level (post-warmup). */
    void clearStats();

    /**
     * Run a CPU-level trace through L1+L2 only and return the access
     * stream that reaches the LLC.  Demand misses become Load/Store
     * records; L2 dirty evictions become write records (pc == 0).
     * Instruction gaps are accumulated so MPKI denominators match the
     * original trace.
     */
    static Trace filterToLlc(const Trace &cpu_trace,
                             const HierarchyConfig &config,
                             const PolicyFactory &l1_policy,
                             const PolicyFactory &l2_policy);

    /**
     * Run one CPU reference through a non-inclusive @p l1 + @p l2
     * pair: the upper half of access(), written once for
     * filterToLlc() and the perf simulator's filter pass.  Each
     * access that continues to the LLC goes to
     * @p emit(byte_addr, pc, type) in the order access() issues it:
     * the L2 dirty victim of an L1 writeback, then the L2's own dirty
     * victim (both AccessType::Writeback with pc 0), then the demand
     * miss itself (Load or Store, with @p rec's pc).  Returns L1 or
     * L2 for an upper-level hit and Llc when the demand reference
     * goes on to the LLC.
     */
    template <typename Emit>
    static HitLevel filterAccess(SetAssocCache &l1, SetAssocCache &l2,
                                 const MemRecord &rec, Emit &&emit);

  private:
    /** Remove an LLC-evicted block from the upper levels. */
    void backInvalidate(uint64_t block_addr);

    bool inclusive_ = false;
    std::unique_ptr<SetAssocCache> l1_;
    std::unique_ptr<SetAssocCache> l2_;
    std::unique_ptr<SetAssocCache> llc_;
};

template <typename Emit>
HitLevel
Hierarchy::filterAccess(SetAssocCache &l1, SetAssocCache &l2,
                        const MemRecord &rec, Emit &&emit)
{
    const AccessType type =
        rec.isWrite ? AccessType::Store : AccessType::Load;
    AccessResult r1 = l1.access(rec.addr, type, rec.pc);
    if (r1.hit)
        return HitLevel::L1;

    // L1 victim writes back into L2.
    if (r1.evictedBlock && r1.evictedDirty) {
        uint64_t wb_addr = *r1.evictedBlock << l1.config().blockShift();
        AccessResult wb = l2.access(wb_addr, AccessType::Writeback, 0);
        if (wb.evictedBlock && wb.evictedDirty)
            emit(*wb.evictedBlock << l2.config().blockShift(), uint64_t{0},
                 AccessType::Writeback);
    }

    AccessResult r2 = l2.access(rec.addr, type, rec.pc);
    if (r2.evictedBlock && r2.evictedDirty)
        emit(*r2.evictedBlock << l2.config().blockShift(), uint64_t{0},
             AccessType::Writeback);
    if (r2.hit)
        return HitLevel::L2;
    emit(rec.addr, rec.pc, type);
    return HitLevel::Llc;
}

} // namespace gippr

#endif // GIPPR_CACHE_HIERARCHY_HH_
