#include "llm4d/fsdp/fsdp.h"

#include <algorithm>

#include "llm4d/simcore/common.h"

namespace llm4d {

std::int64_t
FsdpTraffic::allGatherShardBytes() const
{
    LLM4D_ASSERT(shard_degree >= 1, "invalid shard degree");
    return ceilDiv(param_bytes, shard_degree);
}

std::int64_t
FsdpTraffic::allGatherCount(std::int64_t executions) const
{
    if (shard_degree == 1)
        return 0;
    switch (mode) {
      case ZeroMode::Zero1:
      case ZeroMode::Zero2:
        return 1;
      case ZeroMode::Zero3:
        return executions;
    }
    LLM4D_PANIC("unreachable zero mode");
}

std::int64_t
FsdpTraffic::reduceScatterShardBytes() const
{
    // Gradients accumulate and reduce in FP32: twice the BF16 bytes.
    return ceilDiv(2 * param_bytes, shard_degree);
}

std::int64_t
FsdpTraffic::reduceScatterCount(std::int64_t stages,
                                std::int64_t rounds) const
{
    if (shard_degree == 1)
        return 0;
    switch (mode) {
      case ZeroMode::Zero1:
        return stages;
      case ZeroMode::Zero2:
      case ZeroMode::Zero3:
        return stages * rounds;
    }
    LLM4D_PANIC("unreachable zero mode");
}

OverlapResult
overlapComm(double comm_seconds, double compute_window)
{
    LLM4D_ASSERT(comm_seconds >= 0.0 && compute_window >= 0.0,
                 "negative overlap inputs");
    OverlapResult r;
    r.hidden_seconds = std::min(comm_seconds, compute_window);
    r.exposed_seconds = comm_seconds - r.hidden_seconds;
    return r;
}

PpFsdpChoice
choosePpFsdpCombo(std::int64_t bs, std::int64_t pp)
{
    LLM4D_CHECK(bs >= 1 && pp >= 1, "invalid batch/pipeline sizes");
    if (bs >= 2 * pp)
        return PpFsdpChoice{ZeroMode::Zero1, ScheduleKind::Flexible};
    return PpFsdpChoice{ZeroMode::Zero2,
                        ScheduleKind::AllForwardAllBackward};
}

double
p2pCongestionFactor(bool fsdp_comm_active)
{
    // Calibrated to a moderate effect: concurrent reduce-scatter traffic
    // shaves ~30% off effective P2P bandwidth on the shared NIC. Under
    // fair sharing, a fully-overlapped equal-size aggressor would double
    // the victim's time; 1.4 models the partial overlap seen in practice.
    return fsdp_comm_active ? 1.4 : 1.0;
}

} // namespace llm4d
