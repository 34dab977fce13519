/**
 * @file
 * Scalar shared-LLC reference implementation.
 */

#include "sim/multicore/reference_model.hh"

#include "util/check.hh"

namespace gippr::multicore
{

ScalarSharedLlc::ScalarSharedLlc(const fastpath::ReplaySpec &spec,
                                 const CacheConfig &config,
                                 unsigned cores,
                                 fastpath::DuelScope scope)
    : config_(config), sets_(config.sets()), assoc_(config.assoc),
      scope_(scope),
      fullMask_(config.assoc == 64 ? ~uint64_t{0}
                                   : (uint64_t{1} << config.assoc) - 1)
{
    GIPPR_CHECK(cores >= 1);

    switch (spec.kind) {
      case fastpath::FastPolicyKind::Lru:
      case fastpath::FastPolicyKind::Lip:
      case fastpath::FastPolicyKind::Giplr:
        family_ = Family::Recency;
        break;
      case fastpath::FastPolicyKind::Plru:
        family_ = Family::Plru;
        break;
      case fastpath::FastPolicyKind::Gippr:
        family_ = Family::TreeIpv;
        break;
      case fastpath::FastPolicyKind::Dgippr:
        family_ = Family::TreeIpv;
        duel_ = true;
        break;
    }
    ipvs_ = fastpath::effectiveIpvs(spec, assoc_);

    lines_.assign(sets_ * assoc_, {});
    if (family_ == Family::Recency) {
        stacks_.assign(sets_, RecencyStack(assoc_));
    } else {
        trees_.assign(sets_, PlruTree(assoc_));
    }

    if (duel_) {
        const auto nvec = static_cast<unsigned>(spec.ipvs.size());
        const unsigned leaders =
            clampLeaders(sets_, nvec, spec.leaders);
        LeaderSets base(sets_, nvec, leaders);
        const unsigned domains =
            scope_ == fastpath::DuelScope::PerCore ? cores : 1;
        owners_.resize(domains);
        winner_.resize(domains);
        leaderMisses_.assign(domains,
                             std::vector<uint64_t>(nvec, 0));
        selectors_.reserve(domains);
        for (unsigned d = 0; d < domains; ++d) {
            owners_[d].resize(sets_);
            for (uint64_t s = 0; s < sets_; ++s)
                owners_[d][s] =
                    base.owner((s + d * fastpath::kLeaderSetRotate) %
                               sets_);
            selectors_.emplace_back(nvec, spec.counterBits);
            winner_[d] = selectors_[d].winner();
        }
    }

    masks_.assign(cores, fullMask_);
    counters_.assign(cores, {});
    warmupBase_.assign(cores, {});
}

uint64_t
ScalarSharedLlc::setIndex(uint64_t byte_addr) const
{
    return config_.setIndex(byte_addr);
}

uint64_t
ScalarSharedLlc::tagOf(uint64_t byte_addr) const
{
    return config_.tag(byte_addr);
}

unsigned
ScalarSharedLlc::ipvIndexFor(unsigned core, uint64_t set) const
{
    if (!duel_)
        return 0;
    const unsigned d = duelIndexOf(core);
    const int owner = owners_[d][set];
    return owner != LeaderSets::kFollower ? static_cast<unsigned>(owner)
                                          : winner_[d];
}

int
ScalarSharedLlc::findWay(uint64_t set, uint64_t tag) const
{
    const uint64_t base = set * assoc_;
    for (unsigned w = 0; w < assoc_; ++w) {
        const Line &l = lines_[base + w];
        if (l.valid && l.tag == tag)
            return static_cast<int>(w);
    }
    return -1;
}

unsigned
ScalarSharedLlc::victimWay(unsigned core, uint64_t set) const
{
    const uint64_t mask = masks_[core];
    if (!partitioned_) {
        return family_ == Family::Recency ? stacks_[set].lruWay()
                                          : trees_[set].findPlru();
    }
    // Highest recency position within the mask (see
    // SoaCacheModel::maskedVictim).
    unsigned best = 0;
    unsigned best_pos = 0;
    bool found = false;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (((mask >> w) & 1) == 0)
            continue;
        const unsigned p = family_ == Family::Recency
                               ? stacks_[set].position(w)
                               : trees_[set].position(w);
        if (!found || p > best_pos) {
            best = w;
            best_pos = p;
            found = true;
        }
    }
    GIPPR_DCHECK(found);
    return best;
}

void
ScalarSharedLlc::accessCore(unsigned core, uint64_t byte_addr,
                            AccessType type)
{
    GIPPR_DCHECK(core < counters_.size());
    const uint64_t set = setIndex(byte_addr);
    const uint64_t tag = tagOf(byte_addr);
    const bool demand = type != AccessType::Writeback;
    const uint64_t base = set * assoc_;
    fastpath::CounterBank &bank = counters_[core];

    ++bank.accesses;
    bank.demandAccesses += demand;

    const int hit_way = findWay(set, tag);
    if (hit_way >= 0) {
        const unsigned way = static_cast<unsigned>(hit_way);
        ++bank.hits;
        if (type != AccessType::Load)
            lines_[base + way].dirty = true;
        if (demand) {
            switch (family_) {
              case Family::Recency: {
                RecencyStack &st = stacks_[set];
                st.moveTo(way,
                          ipvs_[0].promotion(st.position(way)));
                break;
              }
              case Family::Plru:
                trees_[set].promoteMru(way);
                break;
              case Family::TreeIpv: {
                const unsigned v = ipvIndexFor(core, set);
                PlruTree &tr = trees_[set];
                tr.setPosition(
                    way, ipvs_[v].promotion(tr.position(way)));
                break;
              }
            }
        }
        return;
    }

    // Miss: duel update before victim selection.
    bank.demandMisses += demand;
    if (duel_ && demand) {
        const unsigned d = duelIndexOf(core);
        const int owner = owners_[d][set];
        if (owner != LeaderSets::kFollower) {
            ++leaderMisses_[d][static_cast<unsigned>(owner)];
            selectors_[d].recordMiss(static_cast<unsigned>(owner));
            winner_[d] = selectors_[d].winner();
        }
    }

    // Fill: first invalid way within the core's mask, else victim.
    const uint64_t mask = masks_[core];
    int fill = -1;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (((mask >> w) & 1) != 0 && !lines_[base + w].valid) {
            fill = static_cast<int>(w);
            break;
        }
    }
    unsigned way;
    if (fill >= 0) {
        way = static_cast<unsigned>(fill);
    } else {
        way = victimWay(core, set);
        ++bank.evictions;
        bank.writebacks += lines_[base + way].dirty;
    }

    Line &l = lines_[base + way];
    l.tag = tag;
    l.valid = true;
    l.dirty = type != AccessType::Load;

    switch (family_) {
      case Family::Recency: {
        RecencyStack &st = stacks_[set];
        st.moveTo(way, assoc_ - 1);
        st.moveTo(way, ipvs_[0].insertion());
        break;
      }
      case Family::Plru:
        trees_[set].promoteMru(way);
        break;
      case Family::TreeIpv: {
        const unsigned v = ipvIndexFor(core, set);
        trees_[set].setPosition(way, ipvs_[v].insertion());
        break;
      }
    }
}

void
ScalarSharedLlc::markWarmup(unsigned core)
{
    warmupBase_[core] = counters_[core];
}

void
ScalarSharedLlc::setWayMask(unsigned core, uint64_t mask)
{
    GIPPR_CHECK(core < masks_.size());
    GIPPR_CHECK(mask != 0 && (mask & ~fullMask_) == 0);
    masks_[core] = mask;
    partitioned_ = false;
    for (uint64_t m : masks_)
        partitioned_ |= m != fullMask_;
}

fastpath::ReplayStats
ScalarSharedLlc::coreStats(unsigned core) const
{
    const fastpath::CounterBank &c = counters_[core];
    const fastpath::CounterBank &w = warmupBase_[core];
    fastpath::ReplayStats s;
    s.total = c;
    s.total.misses = c.accesses - c.hits;
    s.measured.accesses = c.accesses - w.accesses;
    s.measured.hits = c.hits - w.hits;
    s.measured.misses = s.measured.accesses - s.measured.hits;
    s.measured.evictions = c.evictions - w.evictions;
    s.measured.writebacks = c.writebacks - w.writebacks;
    s.measured.demandAccesses = c.demandAccesses - w.demandAccesses;
    s.measured.demandMisses = c.demandMisses - w.demandMisses;
    if (duel_) {
        const unsigned d = duelIndexOf(core);
        s.finalWinner = selectors_[d].winner();
        s.duelCounters = selectors_[d].counterValues();
        s.leaderMisses = leaderMisses_[d];
    }
    return s;
}

} // namespace gippr::multicore
