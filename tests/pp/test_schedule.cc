#include "llm4d/pp/schedule.h"

#include <gtest/gtest.h>

#include "llm4d/pp/legality.h"

namespace llm4d {
namespace {

TEST(ScheduleParams, Validation)
{
    ScheduleParams ok{3, 2, 6, 3};
    ok.validate();
    EXPECT_EQ(ok.numStages(), 6);
    EXPECT_EQ(ok.tmb(), 12);

    ScheduleParams bad{3, 2, 6, 7}; // nc > nmb
    EXPECT_DEATH(bad.validate(), "nc must lie");

    // A PipeOp holds the stage in 16 bits and the micro-batch in 32.
    ScheduleParams deep{1, 40000, 1, 1};
    EXPECT_DEATH(deep.validate(), "virtual stage count must fit");
    ScheduleParams long_step{1, 1, std::int64_t{1} << 31, 1};
    EXPECT_DEATH(long_step.validate(), "micro-batch count must fit");
}

TEST(Warmup, MatchesPaperFigure2)
{
    // Figure 2: pp=3, v=2, nmb=6, nc=3. Rank 0 runs 7 warm-up forwards
    // (micro-batches 0-2 of both virtual stages plus micro-batch 3),
    // rank 1 runs 5, rank 2 runs 3.
    ScheduleParams p{3, 2, 6, 3};
    EXPECT_EQ(flexibleWarmup(p, 0), 7);
    EXPECT_EQ(flexibleWarmup(p, 1), 5);
    EXPECT_EQ(flexibleWarmup(p, 2), 3);
}

TEST(Warmup, ClassicInterleavedFormula)
{
    // nc == pp: warmup = (v-1)*pp + 2*(pp - rank - 1) (Megatron-LM).
    ScheduleParams p{4, 2, 8, 4};
    EXPECT_EQ(flexibleWarmup(p, 0), 4 + 6);
    EXPECT_EQ(flexibleWarmup(p, 3), 4 + 0);
}

TEST(Warmup, ClampedToTotal)
{
    ScheduleParams p{8, 4, 8, 8};
    // (4-1)*8 + 2*7 = 38 > tmb = 32 -> clamp.
    EXPECT_EQ(flexibleWarmup(p, 0), 32);
}

TEST(Schedule, Figure2Rank0ProgramExact)
{
    // The full rank-0 stream of paper Figure 2.
    Schedule s = buildFlexible(ScheduleParams{3, 2, 6, 3});
    using K = PipeOpKind;
    const std::vector<PipeOp> expect = {
        // Warm-up: F0.0 F0.1 F0.2 (vstage0), F1.0 F1.1 F1.2 (vstage1), F0.3
        {K::Forward, 0, 0}, {K::Forward, 0, 1}, {K::Forward, 0, 2},
        {K::Forward, 1, 0}, {K::Forward, 1, 1}, {K::Forward, 1, 2},
        {K::Forward, 0, 3},
        // 1F1B steady.
        {K::Forward, 0, 4}, {K::Backward, 1, 0},
        {K::Forward, 0, 5}, {K::Backward, 1, 1},
        {K::Forward, 1, 3}, {K::Backward, 1, 2},
        {K::Forward, 1, 4}, {K::Backward, 0, 0},
        {K::Forward, 1, 5}, {K::Backward, 0, 1},
        // Cool-down.
        {K::Backward, 0, 2},
        {K::Backward, 1, 3}, {K::Backward, 1, 4}, {K::Backward, 1, 5},
        {K::Backward, 0, 3}, {K::Backward, 0, 4}, {K::Backward, 0, 5},
    };
    EXPECT_EQ(s.program(0), expect);
}

TEST(Schedule, WarmupCountReadsProgram)
{
    // warmupCount counts forwards strictly before the first backward:
    // the scheduled warm-up (7/5/3) plus the first steady-state forward.
    Schedule s = buildFlexible(ScheduleParams{3, 2, 6, 3});
    EXPECT_EQ(s.warmupCount(0), flexibleWarmup(s.params(), 0) + 1);
    EXPECT_EQ(s.warmupCount(1), flexibleWarmup(s.params(), 1) + 1);
    EXPECT_EQ(s.warmupCount(2), flexibleWarmup(s.params(), 2) + 1);
}

TEST(Schedule, GlobalStageMapping)
{
    Schedule s = buildFlexible(ScheduleParams{4, 2, 8, 4});
    EXPECT_EQ(s.globalStage(0, 0), 0);
    EXPECT_EQ(s.globalStage(3, 0), 3);
    EXPECT_EQ(s.globalStage(0, 1), 4);
    EXPECT_EQ(s.rankOfGlobalStage(5), 1);
    EXPECT_EQ(s.vstageOfGlobalStage(5), 1);
}

TEST(Schedule, Classic1F1BRejectsIndivisibleBatch)
{
    // The constraint Section 3.1.1 removes: nmb % pp != 0.
    EXPECT_DEATH(buildInterleaved1F1B(ScheduleParams{4, 2, 10, 4}),
                 "nmb % pp == 0");
}

TEST(Schedule, FlexibleAcceptsIndivisibleBatch)
{
    Schedule s = buildFlexible(ScheduleParams{4, 2, 10, 4});
    EXPECT_TRUE(checkSchedule(s).legal) << checkSchedule(s).reason;
}

TEST(Schedule, FlexibleDegeneratesToAfabWhenNcBelowPp)
{
    Schedule s = buildFlexible(ScheduleParams{4, 2, 8, 2});
    // All forwards precede all backwards on every rank.
    for (std::int64_t r = 0; r < 4; ++r)
        EXPECT_EQ(s.warmupCount(r), s.params().tmb());
}

TEST(Schedule, ExtraInFlightFormula)
{
    EXPECT_EQ(flexibleExtraInFlight(ScheduleParams{4, 3, 16, 8}),
              (8 - 4) * (3 - 1));
    EXPECT_EQ(flexibleExtraInFlight(ScheduleParams{4, 3, 16, 4}), 0);
    EXPECT_EQ(flexibleExtraInFlight(ScheduleParams{4, 3, 16, 2}), 0);
}

TEST(Schedule, AnalyticBubbleRatio)
{
    // (pp-1)/(nmb*v); Section 7.3.1's 5%/12% cases.
    EXPECT_NEAR(analyticBubbleRatio(ScheduleParams{16, 2, 32, 16}),
                15.0 / 64.0, 1e-12);
    EXPECT_NEAR(analyticBubbleRatio(ScheduleParams{4, 7, 12, 4}),
                3.0 / 84.0, 1e-12);
}

TEST(Schedule, RenderMentionsEveryRank)
{
    Schedule s = buildFlexible(ScheduleParams{2, 1, 2, 2});
    const std::string text = s.render();
    EXPECT_NE(text.find("rank 0:"), std::string::npos);
    EXPECT_NE(text.find("rank 1:"), std::string::npos);
    EXPECT_NE(text.find("F0.0"), std::string::npos);
    EXPECT_NE(text.find("B0.0"), std::string::npos);
}

// ---------------------------------------------------------------------
// Legality sweep: every generator must produce legal schedules across a
// broad parameter grid, including non-divisible nmb and nc > pp.
// ---------------------------------------------------------------------

struct SweepCase
{
    std::int64_t pp, v, nmb, nc;
};

class FlexibleLegalitySweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(FlexibleLegalitySweep, IsLegal)
{
    const SweepCase c = GetParam();
    Schedule s = buildFlexible(ScheduleParams{c.pp, c.v, c.nmb, c.nc});
    const LegalityResult r = checkSchedule(s);
    EXPECT_TRUE(r.legal) << "pp=" << c.pp << " v=" << c.v
                         << " nmb=" << c.nmb << " nc=" << c.nc << ": "
                         << r.reason;
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, FlexibleLegalitySweep,
    ::testing::Values(
        SweepCase{1, 1, 1, 1}, SweepCase{2, 1, 2, 2},
        SweepCase{2, 2, 3, 2}, SweepCase{3, 2, 6, 3},
        SweepCase{4, 1, 4, 4}, SweepCase{4, 2, 8, 4},
        SweepCase{4, 2, 12, 6}, SweepCase{4, 2, 12, 12},
        SweepCase{4, 7, 12, 4}, SweepCase{4, 3, 10, 5},
        SweepCase{4, 3, 10, 7}, SweepCase{4, 2, 9, 4},
        SweepCase{8, 2, 16, 8}, SweepCase{8, 4, 24, 12},
        SweepCase{8, 2, 17, 8}, SweepCase{16, 2, 32, 16},
        SweepCase{16, 8, 32, 16}, SweepCase{4, 2, 8, 1},
        SweepCase{4, 2, 8, 2}, SweepCase{8, 3, 20, 4}));

class AfabLegalitySweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(AfabLegalitySweep, IsLegal)
{
    const SweepCase c = GetParam();
    Schedule s =
        buildAllForwardAllBackward(ScheduleParams{c.pp, c.v, c.nmb, c.nc});
    const LegalityResult r = checkSchedule(s);
    EXPECT_TRUE(r.legal) << r.reason;
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, AfabLegalitySweep,
    ::testing::Values(SweepCase{1, 1, 1, 1}, SweepCase{4, 2, 12, 12},
                      SweepCase{4, 2, 12, 4}, SweepCase{8, 1, 8, 8},
                      SweepCase{3, 3, 7, 2}, SweepCase{16, 2, 32, 32}));

// ---------------------------------------------------------------------
// The checker must reject broken schedules.
// ---------------------------------------------------------------------

TEST(Legality, DetectsMissingOp)
{
    Schedule good = buildFlexible(ScheduleParams{2, 1, 2, 2});
    std::vector<std::vector<PipeOp>> progs = {good.program(0),
                                              good.program(1)};
    // Replace one backward with a duplicate forward.
    for (auto &op : progs[0]) {
        if (op.kind == PipeOpKind::Backward && op.mb == 1) {
            op = PipeOp{PipeOpKind::Forward, 0, 0};
            break;
        }
    }
    Schedule bad(ScheduleKind::Flexible, good.params(), std::move(progs));
    const LegalityResult r = checkSchedule(bad);
    EXPECT_FALSE(r.legal);
    EXPECT_NE(r.reason.find("duplicate"), std::string::npos);
}

TEST(Legality, DetectsDeadlock)
{
    // Two ranks, one micro-batch: rank 0 demanding its backward before
    // sending the forward downstream... cannot be expressed without
    // breaking counts, so instead make rank 1 wait for a backward of
    // micro-batch 1 before forwarding micro-batch 0 while rank 0 orders
    // them normally; cyclic wait ensues.
    ScheduleParams p{2, 1, 2, 2};
    using K = PipeOpKind;
    std::vector<std::vector<PipeOp>> progs(2);
    progs[0] = {{K::Forward, 0, 0}, {K::Backward, 0, 0},
                {K::Forward, 0, 1}, {K::Backward, 0, 1}};
    progs[1] = {{K::Forward, 0, 0}, {K::Backward, 0, 0},
                {K::Forward, 0, 1}, {K::Backward, 0, 1}};
    // rank0 waits for B(stage1, mb0) which rank1 only produces after its
    // F(mb0): fine. Now corrupt rank 1 to demand mb 1 first.
    std::swap(progs[1][0], progs[1][2]); // F0.1 before F0.0
    std::swap(progs[1][1], progs[1][3]); // B0.1 before B0.0
    // rank1: F0.1 B0.1 F0.0 B0.0 — but rank 0 only emits F of mb 1 after
    // its backward of mb 0, which needs rank 1's backward of mb 0. Cycle.
    Schedule bad(ScheduleKind::Flexible, p, std::move(progs));
    const LegalityResult r = checkSchedule(bad);
    EXPECT_FALSE(r.legal);
    EXPECT_NE(r.reason.find("deadlock"), std::string::npos);
}

TEST(Legality, DetectsOutOfRangeOp)
{
    ScheduleParams p{1, 1, 1, 1};
    using K = PipeOpKind;
    std::vector<std::vector<PipeOp>> progs(1);
    progs[0] = {{K::Forward, 0, 0}, {K::Backward, 0, 5}};
    Schedule bad(ScheduleKind::Flexible, p, std::move(progs));
    EXPECT_FALSE(checkSchedule(bad).legal);
}

} // namespace
} // namespace llm4d
