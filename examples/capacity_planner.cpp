/**
 * @file
 * Capability-computing capacity planning (paper Sections 1, 5, and 8).
 *
 * "Llama 3 pre-training is a capability computing problem": the batch is
 * fixed at 16M tokens, so adding GPUs shrinks the per-GPU batch and the
 * parallelism configuration must be re-derived at every scale. This
 * example runs the Section-5 planner across cluster sizes and shows how
 * the chosen configuration, per-GPU efficiency, and projected training
 * time evolve — including the total time for the 405B run's 3.8e25 FLOPs
 * budget — and then re-ranks the same candidates by simulated goodput
 * under failures (Section 8), printing the fault-free and fault-aware
 * choices side by side, and per scale how many policy cells needed
 * their own run, what those runs cost the run loop, and which recovery
 * knobs the winner's run consulted.
 *
 * Build & run:  ./build/examples/capacity_planner
 */

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "llm4d/plan/goodput_planner.h"
#include "llm4d/plan/planner.h"
#include "llm4d/simcore/table.h"

using namespace llm4d;

/**
 * "<cells> cells, <runs> runs (<events> engine events, <walked> walked);
 * winner's run consulted: ..." for one ranked sweep: a cell reuses an
 * earlier cell's run when it differs only in knobs that run never read,
 * and the knobs the winner's run read are the only ones that could have
 * changed its outcome. Every run reads its checkpoint mode and tier
 * cadence. The runs' engine events and the segments, writes and drains
 * they walked one at a time are the run loop's work, printed so that
 * the checked-in report pins it.
 */
std::string
sweepSummary(const std::vector<GoodputPlanCandidate> &ranked)
{
    std::size_t cells = 0;
    std::size_t runs = 0;
    std::int64_t events = 0;
    std::int64_t walked = 0;
    for (const GoodputPlanCandidate &cand : ranked) {
        cells += cand.sweep.size();
        for (const GoodputSweepPoint &pt : cand.sweep) {
            if (pt.reuses_cell)
                continue;
            ++runs;
            events += pt.report.engine_events;
            walked += pt.report.walked_work;
        }
    }
    std::string consulted = "checkpoint mode, tiers";
    const PolicyFootprint &read = ranked.front().best().report.footprint;
    for (int k = 0; k < kNumPolicyKnobs; ++k) {
        const auto knob = static_cast<PolicyKnob>(k);
        if (read.contains(knob))
            consulted += std::string(", ") + toString(knob);
    }
    return std::to_string(cells) + " cells, " + std::to_string(runs) +
           " runs (" + std::to_string(events) + " engine events, " +
           std::to_string(walked) + " walked); winner's run consulted: " +
           consulted;
}

int
main()
{
    const double total_flops = 3.8e25; // the Llama 3 405B budget

    TextTable table("405B pre-training across cluster scales "
                    "(16M tokens/step, seq 8192)");
    table.header({"GPUs", "config", "zero", "bs", "TFLOPs/GPU",
                  "step s", "days for 3.8e25 FLOPs"});
    for (std::int64_t ngpu : {2048, 4096, 8192, 16384}) {
        PlanInput in;
        in.cluster = ClusterSpec::llama3Production(ngpu);
        const std::optional<PlanCandidate> best = tryBestPlan(in);
        if (!best) {
            table.row({TextTable::num(ngpu), "infeasible", "-", "-", "-",
                       "-", "-"});
            continue;
        }
        // Model FLOPs per step: ~6 * params * tokens (fwd + bwd).
        const double step_flops = 6.0 *
                                  static_cast<double>(
                                      in.model.totalParams()) *
                                  static_cast<double>(
                                      in.global_batch_tokens);
        const double steps = total_flops / step_flops;
        const double days =
            steps * best->est_step_seconds / 86400.0;
        table.row({TextTable::num(ngpu), best->par.str(),
                   zeroModeName(best->zero), TextTable::num(best->bs),
                   TextTable::num(best->est_tflops_per_gpu, 0),
                   TextTable::num(best->est_step_seconds, 2),
                   TextTable::num(days, 0)});
    }
    table.print();

    std::printf(
        "Fixed token budget means bs = gbs/ndp shrinks as the cluster "
        "grows: the planner\ncompensates by re-tuning the parallelism "
        "mix. Per-GPU efficiency erodes slightly\nat scale while total "
        "time keeps dropping — the capability-computing trade the\n"
        "paper's introduction describes.\n\n");

    // --- Fault-aware re-ranking: both planners side by side. ---
    // The goodput planner simulates the analytic survivors through
    // TrainRunSim under one fault seed and a recovery-policy sweep; the
    // fault-free winner and the goodput winner can diverge once restart
    // blast radius and checkpoint overhead are charged.
    TextTable both("Fault-free vs goodput-ranked plan per scale "
                   "(common fault seed)");
    both.header({"GPUs", "fault-free winner", "goodput winner", "policy",
                 "spares", "goodput TFLOPs/GPU", "same?"});
    std::vector<std::string> summaries;
    for (std::int64_t ngpu : {2048, 4096, 8192, 16384}) {
        GoodputPlanInput gin;
        gin.base.cluster = ClusterSpec::llama3Production(ngpu);
        gin.top_k = 4;
        gin.horizon_steps = 3000;
        const std::optional<PlanCandidate> analytic =
            tryBestPlan(gin.base);
        const std::vector<GoodputPlanCandidate> ranked = planGoodput(gin);
        if (!analytic || ranked.empty()) {
            both.row({TextTable::num(ngpu), "infeasible", "-", "-", "-",
                      "-", "-"});
            continue;
        }
        const GoodputPlanCandidate &fault_aware = ranked.front();
        summaries.push_back(std::to_string(ngpu) +
                            " GPUs: " + sweepSummary(ranked));
        const GoodputSweepPoint &cell = fault_aware.best();
        const bool same = fault_aware.analytic.par == analytic->par &&
                          fault_aware.analytic.zero == analytic->zero;
        both.row({TextTable::num(ngpu), analytic->par.str(),
                  fault_aware.analytic.par.str(),
                  std::string(toString(cell.policy.mode)) + "/" +
                      toString(cell.policy.checkpoint_mode),
                  TextTable::num(cell.policy.spare_hosts),
                  TextTable::num(fault_aware.goodput_tflops_per_gpu, 1),
                  same ? "yes" : "DIVERGED"});
    }
    both.print();
    for (const std::string &summary : summaries)
        std::printf("%s\n", summary.c_str());
    std::printf(
        "Where the rows diverge, the fault-free winner loses goodput to "
        "its restart\nblast radius: recovery charges (rollback, re-init, "
        "sharded restore, warmup)\nare absolute costs, so near-tied "
        "candidates reorder once they are priced.\n");
    return 0;
}
