#ifndef LLM4D_PP_SCHEDULE_H_
#define LLM4D_PP_SCHEDULE_H_

/**
 * @file
 * Pipeline-parallel schedules as explicit per-rank instruction streams.
 *
 * Section 3.1 of the paper: the baseline is the interleaved 1F1B schedule
 * (Megatron-LM), which constrains the micro-batch count to a multiple of
 * the pipeline size. The *flexible* schedule removes that constraint by
 * letting nc — the number of consecutive micro-batches a virtual stage
 * processes per round — be any value in [1, nmb]:
 *
 *  - nc == pp reproduces classic interleaved 1F1B;
 *  - nc > pp inserts (nc - pp) extra warm-up micro-batches per virtual
 *    stage, hiding exposed P2P at the cost of (nc-pp)*(v-1) extra
 *    in-flight micro-batches (Figure 3);
 *  - nc < pp degenerates to all-forward-all-backward (Figure 4b).
 *
 * A schedule here is pure data: one vector of {Forward,Backward} x
 * {virtual stage, micro-batch} per rank, 8 bytes per op. The legality
 * checker proves a stream deadlock-free and compiles it to the tape the
 * executor prices in time; the memory tracker turns the executor's
 * records into allocation timelines. All of them consume the same
 * representation, so what we test is what we measure.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace llm4d {

/** Direction of one pipeline operation. */
enum class PipeOpKind : std::uint8_t
{
    Forward,
    Backward,
};

/**
 * One unit of pipeline work: a (virtual stage, micro-batch) pass.
 * ScheduleParams::validate() bounds v and nmb so both indices fit.
 */
struct PipeOp
{
    PipeOpKind kind = PipeOpKind::Forward;
    std::int16_t stage = 0; ///< virtual stage index on this rank, [0, v)
    std::int32_t mb = 0;    ///< micro-batch index, [0, nmb)

    bool operator==(const PipeOp &) const = default;
};
static_assert(sizeof(PipeOp) == 8, "a pipeline op packs into 8 bytes");

/** Shape parameters of a pipeline schedule. */
struct ScheduleParams
{
    std::int64_t pp = 1;  ///< pipeline ranks
    std::int64_t v = 1;   ///< virtual stages per rank, at most INT16_MAX
    std::int64_t nmb = 1; ///< micro-batches per step, at most INT32_MAX
    std::int64_t nc = 1;  ///< consecutive micro-batches per round

    /** Total stage count pp*v. */
    std::int64_t numStages() const { return pp * v; }

    /** Executions per rank per direction (tmb in the paper). */
    std::int64_t tmb() const { return nmb * v; }

    /** Abort unless the parameters are internally consistent. */
    void validate() const;
};

/** Schedule family (for labels and dispatch). */
enum class ScheduleKind
{
    Interleaved1F1B,       ///< classic, requires nc == pp
    AllForwardAllBackward, ///< GPipe-style
    Flexible,              ///< paper Section 3.1.1
};

/** Name of a schedule kind. */
const char *scheduleKindName(ScheduleKind kind);

/** A complete pipeline schedule: one instruction stream per rank. */
class Schedule
{
  public:
    /** Construct from parameters and per-rank programs. */
    Schedule(ScheduleKind kind, ScheduleParams params,
             std::vector<std::vector<PipeOp>> programs);

    ScheduleKind kind() const { return kind_; }
    const ScheduleParams &params() const { return params_; }

    /** Instruction stream of one rank. */
    const std::vector<PipeOp> &program(std::int64_t rank) const;

    /** Global stage index of (rank, virtual stage): stage*pp + rank. */
    std::int64_t
    globalStage(std::int64_t rank, std::int64_t vstage) const
    {
        return vstage * params_.pp + rank;
    }

    /** Inverse mapping: rank hosting a global stage. */
    std::int64_t rankOfGlobalStage(std::int64_t g) const
    {
        return g % params_.pp;
    }

    /** Inverse mapping: virtual stage index of a global stage. */
    std::int64_t vstageOfGlobalStage(std::int64_t g) const
    {
        return g / params_.pp;
    }

    /**
     * Number of forwards rank @p rank executes strictly before its first
     * backward (the scheduled warm-up plus, in 1F1B, the first
     * steady-state forward).
     */
    std::int64_t warmupCount(std::int64_t rank) const;

    /** Human-readable one-line-per-rank rendering (for examples/docs). */
    std::string render() const;

  private:
    ScheduleKind kind_;
    ScheduleParams params_;
    std::vector<std::vector<PipeOp>> programs_;
};

/**
 * Analytic warm-up micro-batch count for the flexible interleaved
 * schedule: (v-1)*nc + 2*(pp - rank - 1), clamped to tmb (Section 3.1.1).
 */
std::int64_t flexibleWarmup(const ScheduleParams &p, std::int64_t rank);

/** Analytic PP bubble ratio (pp-1)/(nmb*v) (Section 3.1.1). */
double analyticBubbleRatio(const ScheduleParams &p);

/**
 * Extra in-flight warm-up micro-batches of the flexible schedule relative
 * to classic interleaved 1F1B: (nc - pp) * (v - 1) when nc > pp, else 0.
 */
std::int64_t flexibleExtraInFlight(const ScheduleParams &p);

/** Build a classic interleaved 1F1B schedule (requires nc == pp and
 *  nmb % pp == 0). */
Schedule buildInterleaved1F1B(ScheduleParams params);

/** Build an all-forward-all-backward (GPipe-style) schedule. */
Schedule buildAllForwardAllBackward(ScheduleParams params);

/**
 * Build the paper's flexible schedule for any nmb >= 1 and nc in
 * [1, nmb]. Dispatches to AFAB when nc < pp, per Section 3.1.1.
 */
Schedule buildFlexible(ScheduleParams params);

} // namespace llm4d

#endif // LLM4D_PP_SCHEDULE_H_
