/**
 * @file
 * Google-benchmark microbenchmarks of the library itself: schedule
 * generation, checking and execution, collective pricing, executable CP
 * attention, building and running a training-step simulation, a
 * straggler reprice, the multi-day run loop, and a goodput-planning
 * question. These guard the simulator's own performance (an 8K-GPU
 * imbalance sweep must stay interactive).
 */

#include <benchmark/benchmark.h>

#include "llm4d/cp/cp_attention.h"
#include "llm4d/net/collective.h"
#include "llm4d/plan/goodput_planner.h"
#include "llm4d/plan/planner.h"
#include "llm4d/pp/executor.h"
#include "llm4d/pp/legality.h"
#include "llm4d/sim/train_run_sim.h"
#include "llm4d/sim/train_sim.h"

using namespace llm4d;

namespace {

void
BM_BuildFlexibleSchedule(benchmark::State &state)
{
    const ScheduleParams p{16, 8, state.range(0), 16};
    for (auto _ : state) {
        Schedule s = buildFlexible(p);
        benchmark::DoNotOptimize(s.program(0).size());
    }
}
BENCHMARK(BM_BuildFlexibleSchedule)->Arg(16)->Arg(64)->Arg(256);

void
BM_ExecuteSchedule(benchmark::State &state)
{
    const Schedule s =
        buildFlexible(ScheduleParams{16, 8, state.range(0), 16});
    const ExecConfig cfg = ExecConfig::uniform(9e-3, 18e-3, 1e-3);
    for (auto _ : state) {
        ExecResult r = executeSchedule(s, cfg);
        benchmark::DoNotOptimize(r.makespan);
    }
}
BENCHMARK(BM_ExecuteSchedule)->Arg(16)->Arg(64);

void
BM_TimeSchedule(benchmark::State &state)
{
    // BM_ExecuteSchedule's schedule and prices, checked once and timed
    // without records: the path a TrainSim rerun takes.
    const ScheduleParams p{16, 8, state.range(0), 16};
    const LegalSchedule s = LegalSchedule::check(buildFlexible(p));
    ExecPrices prices;
    prices.stage.assign(static_cast<std::size_t>(p.numStages() * p.nmb),
                        StageCost{9e-3, 18e-3});
    prices.p2p_from_prev.assign(static_cast<std::size_t>(p.pp), 1e-3);
    prices.p2p_from_next = prices.p2p_from_prev;
    for (auto _ : state) {
        ExecTiming t = timeSchedule(s, prices);
        benchmark::DoNotOptimize(t.makespan);
    }
}
BENCHMARK(BM_TimeSchedule)->Arg(16)->Arg(64);

void
BM_CheckSchedule(benchmark::State &state)
{
    // The check LegalSchedule::check runs when a TrainSim is built, its
    // tape included (only the move of the schedule is left out), at
    // run_degraded's shape (pp 16, v 8, nmb 16) and with eight times the
    // micro-batches.
    const Schedule s =
        buildFlexible(ScheduleParams{16, 8, state.range(0), 16});
    for (auto _ : state) {
        LegalityResult legal = checkSchedule(s);
        benchmark::DoNotOptimize(legal.tape.data());
    }
}
BENCHMARK(BM_CheckSchedule)->Arg(16)->Arg(128)->Unit(benchmark::kMicrosecond);

void
BM_CollectivePricing(benchmark::State &state)
{
    const ClusterSpec spec = ClusterSpec::llama3Production(16384);
    const Topology topo(spec);
    const CollectiveModel coll(topo);
    std::vector<std::int64_t> group;
    for (std::int64_t r = 0; r < state.range(0); ++r)
        group.push_back(r * 8);
    for (auto _ : state)
        benchmark::DoNotOptimize(coll.allGather(group, 1 << 20));
}
BENCHMARK(BM_CollectivePricing)->Arg(8)->Arg(128);

void
BM_CpAttentionExec(benchmark::State &state)
{
    Rng rng(1);
    const std::int64_t seq = state.range(0);
    const Tensor q = Tensor::randn({2, seq, 16}, rng);
    const Tensor k = Tensor::randn({1, seq, 16}, rng);
    const Tensor v = Tensor::randn({1, seq, 16}, rng);
    Rng mask_rng(2);
    const DocMask mask = DocMask::sample(seq, 16.0, mask_rng);
    const CpSharding sharding(seq, 2);
    for (auto _ : state) {
        CpRankResult r =
            allGatherCpForward(q, k, v, mask, sharding, 0);
        benchmark::DoNotOptimize(r.out.data());
    }
}
BENCHMARK(BM_CpAttentionExec)->Arg(64)->Arg(128);

void
BM_TrainStepSimulation(benchmark::State &state)
{
    TrainJobConfig cfg; // production 8K step, 16K simulated GPUs
    const TrainSim sim(cfg);
    for (auto _ : state) {
        TrainStepReport rep = sim.run();
        benchmark::DoNotOptimize(rep.tflops_per_gpu);
    }
}
BENCHMARK(BM_TrainStepSimulation);

void
BM_TrainSimBuild(benchmark::State &state)
{
    // What a TrainSim costs before its first step is timed: document
    // masks and CP pair counts, the schedule's build and check, and the
    // price tables. Argument 0 is the default job, plan_sweep's 16K
    // flexible candidate (tp8/cp1/pp16/dp128, nmb 16); argument 1 is
    // run_degraded's (BM_StragglerRerun's job).
    TrainJobConfig job;
    if (state.range(0) == 1) {
        job.par = ParallelismConfig{8, 16, 16, 8};
        job.seq = 131072;
        job.doc_mask_mean = 4096.0;
    }
    for (auto _ : state) {
        const TrainSim sim(job);
        benchmark::DoNotOptimize(sim.microBatches());
    }
}
BENCHMARK(BM_TrainSimBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void
BM_StragglerRerun(benchmark::State &state)
{
    // A straggler set priced the way a degraded run prices it: one
    // makespan-only reprice (TrainSim::stepSeconds) of a built TrainSim
    // under a changed PerfVariation. The job is Table 2's 131K row
    // (tp8/cp16/pp16/dp8) with 4K-mean document masks; each iteration
    // slows a different pipeline stage.
    TrainJobConfig job;
    job.par = ParallelismConfig{8, 16, 16, 8};
    job.seq = 131072;
    job.doc_mask_mean = 4096.0;
    const TrainSim sim(job);
    const RankGrid grid(job.par);
    std::vector<PerfVariation> perfs(static_cast<std::size_t>(job.par.pp),
                                     job.perf);
    for (std::int64_t stage = 0; stage < job.par.pp; ++stage)
        perfs[static_cast<std::size_t>(stage)].injectStraggler(
            grid.rankOf(RankCoord{0, 0, stage, 0}), 0.7);
    std::size_t i = 0;
    for (auto _ : state) {
        const double step = sim.stepSeconds(perfs[i++ % perfs.size()]);
        benchmark::DoNotOptimize(step);
    }
}
BENCHMARK(BM_StragglerRerun)->Unit(benchmark::kMicrosecond);

void
BM_PlannerEnumeration(benchmark::State &state)
{
    // plan_sweep's input shape at the argument's GPU count: 1024 tokens
    // per GPU at 8K sequence. Enumeration should cost about the same at
    // every cluster size.
    const std::int64_t gpus = state.range(0);
    PlanInput in;
    in.cluster = ClusterSpec::llama3Production(gpus);
    in.global_batch_tokens = gpus * 1024;
    for (auto _ : state) {
        auto plans = enumeratePlans(in);
        benchmark::DoNotOptimize(plans.size());
    }
}
BENCHMARK(BM_PlannerEnumeration)
    ->Arg(2048)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

void
BM_TrainRunSimRun(benchmark::State &state)
{
    // The default 16K-GPU run for the Llama 3 report's 54 days of steps
    // at its Young-Daly interval: the run loop's cost, the job priced
    // once outside the timed loop.
    TrainRunConfig cfg;
    cfg.seed = 54;
    cfg.checkpoint_interval_steps = 0;
    cfg.checkpoint_interval_auto = true;
    const TrainRunSim job(cfg);
    cfg.total_steps = static_cast<std::int64_t>(54.0 * 86400.0 /
                                                job.baseStep().step_seconds);
    const TrainRunSim sim(cfg, job);
    std::int64_t events = 0;
    std::int64_t walked = 0;
    for (auto _ : state) {
        const TrainRunReport rep = sim.run();
        events = rep.engine_events;
        walked = rep.walked_work;
        benchmark::DoNotOptimize(rep.wall_seconds);
    }
    // Steps per iteration as an inverted rate: seconds per step.
    state.counters["time_per_step"] = benchmark::Counter(
        static_cast<double>(cfg.total_steps),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
    state.counters["events_per_run"] = static_cast<double>(events);
    state.counters["walked_per_run"] = static_cast<double>(walked);
}
BENCHMARK(BM_TrainRunSimRun)->Unit(benchmark::kMillisecond);

void
BM_PlanGoodput(benchmark::State &state)
{
    // One planGoodput question at plan_sweep's shape: 1024 tokens per
    // GPU, the default grid, horizon and fault seed. Runs simulated,
    // their engine events and their walked work are counted per
    // question.
    const std::int64_t gpus = state.range(0);
    GoodputPlanInput in;
    in.base.cluster = ClusterSpec::llama3Production(gpus);
    in.base.global_batch_tokens = gpus * 1024;
    std::int64_t runs = 0;
    std::int64_t events = 0;
    std::int64_t walked = 0;
    for (auto _ : state) {
        const std::vector<GoodputPlanCandidate> ranked = planGoodput(in);
        runs = 0;
        events = 0;
        walked = 0;
        for (const GoodputPlanCandidate &cand : ranked) {
            for (const GoodputSweepPoint &pt : cand.sweep) {
                if (pt.reuses_cell)
                    continue;
                ++runs;
                events += pt.report.engine_events;
                walked += pt.report.walked_work;
            }
        }
        benchmark::DoNotOptimize(ranked.data());
    }
    state.counters["runs_per_question"] = static_cast<double>(runs);
    state.counters["events_per_question"] = static_cast<double>(events);
    state.counters["walked_per_question"] = static_cast<double>(walked);
}
BENCHMARK(BM_PlanGoodput)
    ->Arg(2048)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
