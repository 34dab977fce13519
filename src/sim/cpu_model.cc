/**
 * @file
 * CPU model implementation.
 */

#include "sim/cpu_model.hh"

#include <algorithm>

#include "util/check.hh"

namespace gippr
{

CpuModel::CpuModel(CpuParams params)
    : params_(params), inflight_(std::max(params.mshrs, 1u))
{
}

CpuModel::Outstanding &
CpuModel::inflightAt(size_t i)
{
    const size_t slot = inflightHead_ + i;
    return inflight_[slot < inflight_.size() ? slot
                                             : slot - inflight_.size()];
}

void
CpuModel::popOldest()
{
    inflightHead_ = inflightHead_ + 1 == inflight_.size()
                        ? 0
                        : inflightHead_ + 1;
    --inflightCount_;
}

double
CpuModel::latencyOf(HitLevel level) const
{
    switch (level) {
      case HitLevel::L1:
        return 0.0; // pipelined into the base issue rate
      case HitLevel::L2:
        return params_.latL2;
      case HitLevel::Llc:
        return params_.latLlc;
      case HitLevel::Memory:
        return params_.latMemory;
    }
    return 0.0;
}

void
CpuModel::step(uint32_t inst_gap, HitLevel level)
{
    // Issue the intervening instructions at full width.
    instructions_ += inst_gap;
    totalInstructions_ += inst_gap;
    cycles_ += static_cast<double>(inst_gap) /
               static_cast<double>(params_.width);

    // Window constraint: the access cannot issue while an outstanding
    // access older than robSize instructions is still pending.
    while (inflightCount_ != 0) {
        const Outstanding &oldest = inflightAt(0);
        bool outside_window =
            totalInstructions_ - oldest.instIndex >
            static_cast<uint64_t>(params_.robSize);
        if (oldest.completeCycle <= cycles_) {
            popOldest();
        } else if (outside_window || inflightCount_ >= params_.mshrs) {
            // Stall until the blocking access returns.
            cycles_ = oldest.completeCycle;
            popOldest();
        } else {
            break;
        }
    }

    const double lat = latencyOf(level);
    if (lat > 0.0) {
        GIPPR_DCHECK(inflightCount_ < inflight_.size());
        inflightAt(inflightCount_) = {totalInstructions_, cycles_ + lat};
        ++inflightCount_;
    }
}

void
CpuModel::drain()
{
    if (inflightCount_ != 0) {
        double last = cycles_;
        for (size_t i = 0; i < inflightCount_; ++i)
            last = std::max(last, inflightAt(i).completeCycle);
        cycles_ = last;
        inflightCount_ = 0;
    }
}

void
CpuModel::clearStats()
{
    cycles_ = 0.0;
    instructions_ = 0;
    // In-flight accesses keep absolute completion cycles; rebase them
    // so the measured region starts at cycle zero.
    if (inflightCount_ != 0) {
        double base = inflightAt(0).completeCycle;
        for (size_t i = 0; i < inflightCount_; ++i) {
            Outstanding &o = inflightAt(i);
            o.completeCycle = std::max(0.0, o.completeCycle - base);
        }
    }
}

} // namespace gippr
