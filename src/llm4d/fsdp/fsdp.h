#ifndef LLM4D_FSDP_FSDP_H_
#define LLM4D_FSDP_FSDP_H_

/**
 * @file
 * Fully sharded data parallelism: communication volumes, overlap, and the
 * PP co-optimization rules of paper Section 3.1.3.
 *
 * Per training step (ZeRO-1/2), FSDP all-gathers parameters once and
 * reduce-scatters gradients once over the combined DP x CP group; both can
 * overlap with compute except the first all-gather (nothing before it)
 * and the last reduce-scatter (nothing after it). ZeRO-3 re-gathers
 * parameters around every stage execution, which is why the paper rejects
 * it under PP. The paper also observes FSDP traffic congesting PP's P2P
 * when they overlap — modelled here as a bandwidth-sharing factor.
 */

#include <cstdint>

#include "llm4d/model/memory_model.h"
#include "llm4d/net/collective.h"
#include "llm4d/pp/schedule.h"

namespace llm4d {

/** Per-step FSDP communication volumes for one rank's parameters. */
struct FsdpTraffic
{
    /** BF16 parameter bytes resident on the rank (after TP/PP sharding). */
    std::int64_t param_bytes = 0;

    /** FSDP shard degree (dp * cp). */
    std::int64_t shard_degree = 1;

    ZeroMode mode = ZeroMode::Zero1;

    /**
     * Parameter all-gather volume per step, bytes per rank shard.
     * ZeRO-1/2 gather the resident parameters once; ZeRO-3 gathers them
     * once per forward AND once per backward of every micro-batch
     * execution (@p executions, typically 2 * tmb).
     */
    std::int64_t allGatherShardBytes() const;

    /** Number of parameter all-gathers per step. */
    std::int64_t allGatherCount(std::int64_t executions) const;

    /**
     * Gradient reduce-scatter shard bytes. Gradients reduce in FP32
     * (paper Section 6.2).
     */
    std::int64_t reduceScatterShardBytes() const;

    /**
     * Gradient reduce-scatters per step: one per stage for ZeRO-1, one
     * per stage per consecutive-round for ZeRO-2/3 (Figure 4).
     */
    std::int64_t reduceScatterCount(std::int64_t stages,
                                    std::int64_t rounds) const;
};

/** Result of overlapping a communication with a compute window. */
struct OverlapResult
{
    double exposed_seconds = 0.0;
    double hidden_seconds = 0.0;
};

/** Overlap @p comm_seconds against @p compute_window seconds. */
OverlapResult overlapComm(double comm_seconds, double compute_window);

/**
 * The Section 3.1.3 co-optimization rule: ZeRO-1 with 1F1B when the
 * per-DP-group batch size covers at least two pipeline rounds
 * (bs >= 2*pp), else ZeRO-2 with all-forward-all-backward.
 */
struct PpFsdpChoice
{
    ZeroMode zero = ZeroMode::Zero1;
    ScheduleKind schedule = ScheduleKind::Flexible;
};

PpFsdpChoice choosePpFsdpCombo(std::int64_t bs, std::int64_t pp);

/**
 * Bandwidth degradation of PP point-to-point transfers while FSDP
 * collectives occupy the same NICs (Section 3.1.3: "FSDP reduce-scatter
 * can lead to traffic congestion with other parallelisms, resulting in
 * degraded P2P performance"). Returns a multiplier >= 1 on P2P time.
 */
double p2pCongestionFactor(bool fsdp_comm_active);

/**
 * Fraction of each extra ZeRO-2 reduce-scatter (one per consecutive
 * micro-batch round after a stage's first, Fig. 4c) that ends up exposed
 * through the same NIC contention with P2P traffic (Section 3.1.3).
 */
inline constexpr double kZero2RsExposedShare = 0.5;

} // namespace llm4d

#endif // LLM4D_FSDP_FSDP_H_
