#include "llm4d/pp/schedule.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "llm4d/simcore/common.h"

namespace llm4d {

void
ScheduleParams::validate() const
{
    LLM4D_CHECK(pp >= 1, "pipeline size must be >= 1");
    LLM4D_CHECK(v >= 1, "virtual stage count must be >= 1");
    LLM4D_CHECK(v <= std::numeric_limits<std::int16_t>::max(),
                "virtual stage count must fit a PipeOp's stage, got v="
                    << v);
    LLM4D_CHECK(nmb >= 1, "micro-batch count must be >= 1");
    LLM4D_CHECK(nmb <= std::numeric_limits<std::int32_t>::max(),
                "micro-batch count must fit a PipeOp's mb, got nmb="
                    << nmb);
    LLM4D_CHECK(nc >= 1 && nc <= nmb,
                "nc must lie in [1, nmb], got nc=" << nc << " nmb=" << nmb);
}

const char *
scheduleKindName(ScheduleKind kind)
{
    switch (kind) {
      case ScheduleKind::Interleaved1F1B:
        return "1F1B";
      case ScheduleKind::AllForwardAllBackward:
        return "AllFallB";
      case ScheduleKind::Flexible:
        return "Flexible";
    }
    LLM4D_PANIC("unreachable schedule kind");
}

Schedule::Schedule(ScheduleKind kind, ScheduleParams params,
                   std::vector<std::vector<PipeOp>> programs)
    : kind_(kind), params_(params), programs_(std::move(programs))
{
    params_.validate();
    LLM4D_ASSERT(static_cast<std::int64_t>(programs_.size()) == params_.pp,
                 "one program per pipeline rank required");
    for (const auto &prog : programs_) {
        LLM4D_ASSERT(static_cast<std::int64_t>(prog.size()) ==
                         2 * params_.tmb(),
                     "each rank runs tmb forwards and tmb backwards");
    }
}

const std::vector<PipeOp> &
Schedule::program(std::int64_t rank) const
{
    LLM4D_ASSERT(rank >= 0 && rank < params_.pp, "rank out of range");
    return programs_[static_cast<std::size_t>(rank)];
}

std::int64_t
Schedule::warmupCount(std::int64_t rank) const
{
    const auto &prog = program(rank);
    std::int64_t count = 0;
    for (const PipeOp &op : prog) {
        if (op.kind == PipeOpKind::Backward)
            break;
        ++count;
    }
    return count;
}

std::string
Schedule::render() const
{
    std::ostringstream os;
    for (std::int64_t r = 0; r < params_.pp; ++r) {
        os << "rank " << r << ":";
        for (const PipeOp &op : program(r)) {
            os << ' ' << (op.kind == PipeOpKind::Forward ? 'F' : 'B')
               << op.stage << '.' << op.mb;
        }
        os << '\n';
    }
    return os.str();
}

std::int64_t
flexibleWarmup(const ScheduleParams &p, std::int64_t rank)
{
    const std::int64_t w = (p.v - 1) * p.nc + 2 * (p.pp - rank - 1);
    return std::clamp<std::int64_t>(w, 0, p.tmb());
}

double
analyticBubbleRatio(const ScheduleParams &p)
{
    return static_cast<double>(p.pp - 1) /
           (static_cast<double>(p.nmb) * static_cast<double>(p.v));
}

std::int64_t
flexibleExtraInFlight(const ScheduleParams &p)
{
    return p.nc > p.pp ? (p.nc - p.pp) * (p.v - 1) : 0;
}

namespace {

/**
 * Enumerate (stage, micro-batch) pairs in round order. Rounds advance
 * through micro-batches nc at a time; within a round, virtual stages run
 * ascending for forwards and descending for backwards, each covering its
 * nc consecutive micro-batches. validate() bounds v and nmb, so both
 * indices narrow exactly.
 */
std::vector<PipeOp>
roundOrder(const ScheduleParams &p, PipeOpKind kind)
{
    std::vector<PipeOp> order;
    order.reserve(static_cast<std::size_t>(p.tmb()));
    for (std::int64_t base = 0; base < p.nmb; base += p.nc) {
        const std::int64_t round_nc = std::min(p.nc, p.nmb - base);
        for (std::int64_t i = 0; i < p.v; ++i) {
            const auto stage = static_cast<std::int16_t>(
                kind == PipeOpKind::Forward ? i : p.v - 1 - i);
            for (std::int64_t k = 0; k < round_nc; ++k)
                order.push_back(
                    PipeOp{kind, stage, static_cast<std::int32_t>(base + k)});
        }
    }
    return order;
}

/**
 * Every rank's warm-up forward count: all tmb of them when every forward
 * runs before any backward, else flexibleWarmup().
 */
std::vector<std::int64_t>
warmups(const ScheduleParams &p, bool all_forward_first)
{
    std::vector<std::int64_t> warmup(static_cast<std::size_t>(p.pp),
                                     p.tmb());
    if (!all_forward_first) {
        for (std::int64_t r = 0; r < p.pp; ++r)
            warmup[static_cast<std::size_t>(r)] = flexibleWarmup(p, r);
    }
    return warmup;
}

/** Assemble per-rank programs from each rank's warm-up count. */
std::vector<std::vector<PipeOp>>
assemble(const ScheduleParams &p, const std::vector<std::int64_t> &warmup)
{
    const std::vector<PipeOp> fwd = roundOrder(p, PipeOpKind::Forward);
    const std::vector<PipeOp> bwd = roundOrder(p, PipeOpKind::Backward);
    const std::int64_t total = p.tmb();

    std::vector<std::vector<PipeOp>> programs;
    programs.reserve(static_cast<std::size_t>(p.pp));
    for (std::int64_t r = 0; r < p.pp; ++r) {
        const std::int64_t w = warmup[static_cast<std::size_t>(r)];
        std::vector<PipeOp> prog;
        prog.reserve(static_cast<std::size_t>(2 * total));
        prog.insert(prog.end(), fwd.begin(), fwd.begin() + w);
        // 1F1B steady state: one forward, one backward.
        for (std::int64_t i = 0; i + w < total; ++i) {
            prog.push_back(fwd[static_cast<std::size_t>(w + i)]);
            prog.push_back(bwd[static_cast<std::size_t>(i)]);
        }
        // Cool-down: remaining backwards.
        prog.insert(prog.end(), bwd.begin() + (total - w), bwd.end());
        programs.push_back(std::move(prog));
    }
    return programs;
}

} // namespace

Schedule
buildInterleaved1F1B(ScheduleParams params)
{
    params.validate();
    LLM4D_CHECK(params.nc == params.pp,
                "classic interleaved 1F1B requires nc == pp "
                "(use buildFlexible for other nc)");
    LLM4D_CHECK(params.nmb % params.pp == 0,
                "classic interleaved 1F1B requires nmb % pp == 0, got nmb="
                    << params.nmb << " pp=" << params.pp
                    << " (the constraint Section 3.1.1 removes)");
    return Schedule(ScheduleKind::Interleaved1F1B, params,
                    assemble(params, warmups(params, false)));
}

Schedule
buildAllForwardAllBackward(ScheduleParams params)
{
    params.validate();
    return Schedule(ScheduleKind::AllForwardAllBackward, params,
                    assemble(params, warmups(params, true)));
}

Schedule
buildFlexible(ScheduleParams params)
{
    params.validate();
    // Section 3.1.1: with fewer consecutive micro-batches than ranks the
    // interleaved pattern cannot keep 1F1B dependencies ahead of the
    // pipeline; degenerate to all-forward-all-backward.
    return Schedule(ScheduleKind::Flexible, params,
                    assemble(params, warmups(params, params.nc < params.pp)));
}

} // namespace llm4d
