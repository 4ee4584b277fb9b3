#ifndef LLM4D_SIM_TRAIN_SIM_H_
#define LLM4D_SIM_TRAIN_SIM_H_

/**
 * @file
 * End-to-end simulated training step under 4D parallelism.
 *
 * Composes the whole stack: layer cost model (TP-sharded kernels), CP
 * sharding and collectives, the flexible PP schedule run through the
 * timed executor, FSDP all-gather/reduce-scatter exposure, and the
 * per-rank memory model. Produces the quantities the paper's evaluation
 * reports: TFLOPs/GPU, bubble ratio, exposed-communication breakdown,
 * and per-PP-rank peak memory (Sections 7.1 and 7.3).
 */

#include <cstdint>
#include <vector>

#include "llm4d/cp/cp_cost.h"
#include "llm4d/fsdp/fsdp.h"
#include "llm4d/hw/perf_variation.h"
#include "llm4d/model/layer_cost.h"
#include "llm4d/model/memory_model.h"
#include "llm4d/model/model_config.h"
#include "llm4d/parallel/parallelism.h"
#include "llm4d/pp/executor.h"
#include "llm4d/pp/layer_balance.h"

namespace llm4d {

/** Full description of one training job. */
struct TrainJobConfig
{
    ModelConfig model = ModelConfig::llama3_405b();
    ClusterSpec cluster = ClusterSpec::llama3Production();
    ParallelismConfig par{8, 1, 16, 128};

    std::int64_t seq = 8192;
    std::int64_t global_batch_tokens = 16LL * 1024 * 1024;
    std::int64_t mbs = 1; ///< sequences per micro-batch

    ZeroMode zero = ZeroMode::Zero1;
    ScheduleKind schedule = ScheduleKind::Flexible;
    std::int64_t nc = 0; ///< 0 = auto (min(pp, nmb))

    ActivationMode act = ActivationMode::Full;
    bool balanced_layers = true;   ///< Section 3.1.2 co-design
    bool memory_optimized = true;  ///< Section 6.3 releases

    /** 0 = full causal; > 0 = document mask with this mean length. */
    double doc_mask_mean = 0.0;

    std::uint64_t seed = 1;
    PerfVariation perf;

    /** Field-wise, through every struct it holds; a field added later
     *  is compared too. */
    bool operator==(const TrainJobConfig &) const = default;
};

/** Results of one simulated training step. */
struct TrainStepReport
{
    double step_seconds = 0.0;
    double tflops_per_gpu = 0.0; ///< useful model FLOPs per GPU second
    double mfu = 0.0;            ///< fraction of peak

    double bubble_ratio = 0.0;   ///< pipeline idle over compute
    double exposed_tp_seconds = 0.0;
    double exposed_cp_seconds = 0.0;
    double exposed_fsdp_seconds = 0.0;
    double optimizer_seconds = 0.0;

    std::int64_t bs = 0;  ///< sequences per DP group per step
    std::int64_t nmb = 0; ///< micro-batches
    std::int64_t v = 0;   ///< virtual stages per PP rank

    /** Peak memory per PP rank (index = pp rank). */
    std::vector<MemoryBreakdown> pp_rank_memory;

    /** Largest per-rank peak, GiB. */
    double maxMemoryGib() const;

    /** True when every rank fits in the GPU's HBM (with headroom). */
    bool fits(double capacity_gib, double headroom = 0.94) const;
};

/**
 * Simulates training steps for one job configuration.
 *
 * The constructor derives everything a step's price needs that no
 * PerfVariation changes: the sampled micro-batch document masks and their
 * CP pair counts, the unit-speed stage costs, the neighbour P2P prices,
 * the FSDP/optimizer exposure, and the PP schedule, built and checked
 * once into its tape. run() then only fills the executor's price table
 * from the stage costs at per-rank speed and times that tape.
 * stepSeconds() fills the same table and times only the makespan: it
 * skips the bubble ratio, the per-rank memory model and the report copy,
 * for a caller (a straggler reprice) that reads nothing but the step.
 */
class TrainSim
{
  public:
    /** Validate and pre-derive the per-job pricing state. */
    explicit TrainSim(TrainJobConfig cfg);

    const TrainJobConfig &config() const { return cfg_; }

    /** Sequences per DP group per step. */
    std::int64_t batchPerDpGroup() const { return bs_; }

    /** Micro-batch count. */
    std::int64_t microBatches() const { return nmb_; }

    /** Virtual stages per PP rank. */
    std::int64_t virtualStages() const { return v_; }

    /** The layer-to-stage assignment in use. */
    const StageAssignment &assignment() const { return assignment_; }

    /** Simulate one training step under config().perf. */
    TrainStepReport run() const { return run(cfg_.perf); }

    /**
     * Simulate one training step of this job under @p perf in place of
     * config().perf: bit-identical to a TrainSim built with that perf,
     * without re-deriving the per-job state.
     */
    TrainStepReport run(const PerfVariation &perf) const;

    /** run(@p perf).step_seconds, bit for bit, without the rest of the
     *  report. */
    double stepSeconds(const PerfVariation &perf) const;

  private:
    /** The executor's price table under @p perf. */
    ExecPrices prices(const PerfVariation &perf) const;

    /** A step's seconds when its schedule takes @p makespan. */
    double stepSecondsAt(Time makespan) const;

    TrainJobConfig cfg_;
    std::int64_t bs_ = 0;
    std::int64_t nmb_ = 0;
    std::int64_t v_ = 0;
    StageAssignment assignment_;
    LegalSchedule schedule_;

    /** Stage seconds at unit speed, [rank * v + vstage], before the
     *  per-micro-batch attention scaling. */
    std::vector<StageCost> stage_work_;
    std::vector<double> mb_fwd_scale_; ///< attention scaling per mb
    std::vector<double> mb_bwd_scale_;
    /** Boundary-tensor P2P seconds into each rank from its previous and
     *  its next pipeline neighbour (the only pairs a schedule uses). */
    std::vector<double> p2p_from_prev_;
    std::vector<double> p2p_from_next_;
    /** Useful model FLOPs per pipeline rank per step. */
    double flops_per_rank_step_ = 0.0;
    /** The report fields no PerfVariation changes (bs, nmb, v, exposed
     *  communication, optimizer). */
    TrainStepReport invariant_report_;
};

} // namespace llm4d

#endif // LLM4D_SIM_TRAIN_SIM_H_
