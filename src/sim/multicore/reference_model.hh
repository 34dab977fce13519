/**
 * @file
 * Scalar reference model for the shared-LLC differential oracle.
 *
 * ScalarSharedLlc implements the N-core shared cache semantics of
 * fastpath::SoaCacheModel's shared instantiation over the production
 * scalar data structures — PlruTree / RecencyStack per set,
 * LeaderSets + TournamentSelector for dueling — with none of the
 * packed-state tricks.
 *
 * It is the one independent reference for the shared LLC, and it
 * stays because nothing else can play that role.  The single-core
 * reference, SetAssocCache with a ReplacementPolicy object, has no
 * per-core counter banks, no per-core way masks and no per-core duel
 * domains, so it cannot replay a partitioned or PerCore-duel mix.
 * ScalarSharedLlc is developed against the same written semantics as
 * SoaCacheModel but shares no state layout with it, which is what
 * makes the lock-step scalar-vs-fast oracle in
 * tests/test_multicore_sim.cc meaningful for interleaved streams.
 *
 * Its per-core interface (accessCore, markWarmup, setWayMask,
 * coreStats) matches SoaCacheModel's shared one, so the engine's
 * replay loop is templated over either backend.
 */

#ifndef GIPPR_SIM_MULTICORE_REFERENCE_MODEL_HH_
#define GIPPR_SIM_MULTICORE_REFERENCE_MODEL_HH_

#include <cstdint>
#include <vector>

#include "cache/replacement.hh"
#include "core/plru_tree.hh"
#include "policies/recency_stack.hh"
#include "policies/set_dueling.hh"
#include "sim/fastpath/replay_spec.hh"

namespace gippr::multicore
{

/** Scalar N-core shared LLC (oracle for the packed shared model). */
class ScalarSharedLlc
{
  public:
    ScalarSharedLlc(const fastpath::ReplaySpec &spec,
                    const CacheConfig &config, unsigned cores,
                    fastpath::DuelScope scope);

    void accessCore(unsigned core, uint64_t byte_addr, AccessType type);
    void markWarmup(unsigned core);
    void setWayMask(unsigned core, uint64_t mask);
    fastpath::ReplayStats coreStats(unsigned core) const;

    uint64_t sets() const { return sets_; }
    unsigned assoc() const { return assoc_; }

    uint64_t setIndex(uint64_t byte_addr) const;
    uint64_t tagOf(uint64_t byte_addr) const;

  private:
    enum class Family : uint8_t
    {
        Recency,
        Plru,
        TreeIpv,
    };

    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
    };

    unsigned duelIndexOf(unsigned core) const
    {
        return scope_ == fastpath::DuelScope::PerCore ? core : 0;
    }

    unsigned ipvIndexFor(unsigned core, uint64_t set) const;
    int findWay(uint64_t set, uint64_t tag) const;
    unsigned victimWay(unsigned core, uint64_t set) const;

    CacheConfig config_;
    uint64_t sets_;
    unsigned assoc_;

    Family family_;
    bool duel_ = false;
    fastpath::DuelScope scope_;
    std::vector<Ipv> ipvs_;

    std::vector<Line> lines_;          // sets * assoc
    std::vector<RecencyStack> stacks_; // Recency family
    std::vector<PlruTree> trees_;      // tree families

    std::vector<std::vector<int>> owners_;
    std::vector<TournamentSelector> selectors_;
    std::vector<unsigned> winner_;
    std::vector<std::vector<uint64_t>> leaderMisses_;

    std::vector<uint64_t> masks_;
    uint64_t fullMask_;
    bool partitioned_ = false;

    std::vector<fastpath::CounterBank> counters_;
    std::vector<fastpath::CounterBank> warmupBase_;
};

} // namespace gippr::multicore

#endif // GIPPR_SIM_MULTICORE_REFERENCE_MODEL_HH_
