/**
 * @file
 * Fault-tolerance simulation: goodput of a multi-day 405B training run
 * under component failures, checkpoint/restart, link flaps, and silent
 * stragglers (paper Section 8; Llama 3's 54-day production run saw 419
 * unexpected interruptions — roughly one every three hours).
 *
 * Shows the four headline results of the fault subsystem:
 *  1. where the wall-clock of a failure-ridden run actually goes;
 *  2. the empirical optimal checkpoint interval vs. Young-Daly;
 *  3. goodput shrinking with scale at fixed per-GPU failure rates;
 *  4. recovery policies compared on one fault timeline: full restarts
 *     vs. warm-spare swaps vs. the elastic stack (spares + DP-shrink +
 *     async checkpointing + straggler rebalancing);
 *  5. host repair + DP-regrow: a shrink-capable job that loses a data-
 *     parallel replica and buys the width back once the broken host
 *     clears the repair shop;
 *  6. hierarchical checkpoint tiers + partial restart: HBM peer mirrors
 *     at every boundary make rollback nearly free, and a GpuFatal swap
 *     restores from the peer mirror instead of the filesystem — only a
 *     HostCrash (which destroys that host's local copies) pays the
 *     global tier.
 *
 * Deterministic under the fixed seed: rerunning prints identical numbers.
 *
 * Build & run:  ./build/examples/fault_tolerance
 */

#include <cstdio>

#include "llm4d/sim/train_run_sim.h"
#include "llm4d/simcore/table.h"

using namespace llm4d;

namespace {

TrainRunConfig
productionRun()
{
    TrainRunConfig cfg; // 405B on 16,384 H100s, Table-2 parallelism
    cfg.total_steps = 5000;
    cfg.checkpoint_interval_steps = 50;
    cfg.seed = 2024;
    return cfg;
}

void
printRun(const TrainRunSim &sim, const TrainRunReport &rep)
{
    TextTable table("Simulated production run (16,384 GPUs)");
    table.header({"metric", "value"});
    table.row({"cluster MTBF",
               TextTable::num(sim.mtbfSeconds() / 3600.0, 2) + " h"});
    table.row({"steps committed",
               TextTable::num(rep.steps_committed) + " / " +
                   TextTable::num(sim.config().total_steps)});
    table.row({"wall-clock", TextTable::num(rep.wall_seconds / 3600.0, 2) +
                                 " h (ideal " +
                                 TextTable::num(rep.ideal_seconds / 3600.0,
                                                2) +
                                 " h)"});
    table.row({"interruptions",
               TextTable::num(rep.faults.gpu_fatal + rep.faults.host_crash) +
                   " fatal, " + TextTable::num(rep.faults.stragglers) +
                   " stragglers, " + TextTable::num(rep.faults.link_flaps) +
                   " link flaps"});
    table.row({"restarts", TextTable::num(rep.restarts)});
    table.row({"steps lost to rollback", TextTable::num(rep.steps_lost)});
    table.row({"goodput", TextTable::num(rep.goodput_tflops_per_gpu, 1) +
                              " TFLOPs/GPU (base " +
                              TextTable::num(rep.base_tflops_per_gpu, 1) +
                              ")"});
    table.row({"goodput fraction", TextTable::pct(rep.goodputFraction())});
    table.row({"availability", TextTable::pct(rep.availability)});
    table.print();

    TextTable where("Where the wall-clock went");
    where.header({"bucket", "hours", "share"});
    const auto bucket = [&](const char *name, double seconds) {
        where.row({name, TextTable::num(seconds / 3600.0, 2),
                   TextTable::pct(seconds / rep.wall_seconds)});
    };
    bucket("productive steps", rep.productive_seconds);
    bucket("degradation (stragglers/flaps/warmup)", rep.degraded_seconds);
    bucket("checkpoint saves", rep.checkpoint_seconds);
    bucket("lost (rolled-back) work", rep.lost_seconds);
    bucket("failure detection", rep.detection_seconds);
    bucket("restart + restore", rep.restart_seconds);
    where.print();
}

} // namespace

int
main()
{
    // --- 1. One production-scale run through the fault model. ---
    const TrainRunSim sim(productionRun());
    printRun(sim, sim.run());

    // --- 2. Checkpoint-interval scan vs. the Young-Daly optimum. ---
    const std::int64_t yd = sim.youngDalyIntervalSteps();
    TextTable scan("Checkpoint interval scan (same fault timeline)");
    scan.header({"interval (steps)", "goodput TFLOPs/GPU", "note"});
    for (const auto &pt : sim.scanCheckpointIntervals(
             {yd / 4, yd / 2, yd, 2 * yd, 4 * yd})) {
        scan.row({TextTable::num(pt.interval_steps),
                  TextTable::num(pt.goodput_tflops_per_gpu, 1),
                  pt.interval_steps == yd ? "<- Young-Daly sqrt(2*MTBF*C)"
                                          : ""});
    }
    scan.print();
    std::printf("Checkpoint save: %.1f s sharded over the cluster "
                "(%.1f GB/GPU)\n\n",
                sim.checkpoint().saveSeconds(),
                sim.checkpoint().bytesPerGpu() / 1e9);

    // --- 3. Goodput vs. scale at the same per-GPU failure rates. ---
    TextTable scale("Scale vs. goodput (same per-GPU failure rates, "
                    "Young-Daly-tuned checkpoints)");
    scale.header({"GPUs", "fatal faults/h", "ckpt interval",
                  "goodput TFLOPs/GPU", "goodput fraction"});
    struct Point
    {
        std::int64_t gpus;
        ParallelismConfig par;
        std::int64_t batch_tokens;
    };
    const Point points[] = {
        {2048, ParallelismConfig{8, 1, 16, 16}, 2LL * 1024 * 1024},
        {16384, ParallelismConfig{8, 1, 16, 128}, 16LL * 1024 * 1024},
    };
    for (const Point &p : points) {
        TrainRunConfig cfg = productionRun();
        cfg.job.cluster = ClusterSpec::llama3Production(p.gpus);
        cfg.job.par = p.par;
        cfg.job.global_batch_tokens = p.batch_tokens; // bs = 16 per DP group
        cfg.total_steps = 3000;
        // Each scale gets its own optimal interval: smaller clusters have
        // slower per-host saves AND rarer failures, so they checkpoint
        // far less often.
        const TrainRunSim probe(cfg);
        cfg.checkpoint_interval_steps = probe.youngDalyIntervalSteps();
        const TrainRunReport r = TrainRunSim(cfg, probe).run();
        scale.row({TextTable::num(p.gpus),
                   TextTable::num(cfg.job.cluster.fatalFailuresPerHour(), 3),
                   TextTable::num(cfg.checkpoint_interval_steps) + " steps",
                   TextTable::num(r.goodput_tflops_per_gpu, 1),
                   TextTable::pct(r.goodputFraction())});
    }
    scale.print();
    std::puts("Same per-component MTBF: 8x the GPUs means 8x the cluster\n"
              "failure rate, and the whole synchronized job pays for every\n"
              "single one — the paper's Section 8 operations story.\n");

    // --- 4. Recovery policies on one fault timeline (common seed). ---
    // The failure process is exogenous — a pure function of the seed —
    // so all three runs face the exact same faults and the table
    // isolates what each policy does about them.
    struct Candidate
    {
        const char *name;
        RecoveryPolicy policy;
    };
    RecoveryPolicy warm_sync;
    warm_sync.mode = RecoveryMode::WarmSpare;
    warm_sync.spare_hosts = 8;
    RecoveryPolicy elastic_regrow = RecoveryPolicy::elastic(8);
    elastic_regrow.allow_regrow = true;
    const Candidate candidates[] = {
        {"full restart / sync ckpt", RecoveryPolicy{}},
        {"warm spares / sync ckpt", warm_sync},
        {"elastic: spares+shrink+async+rebalance",
         RecoveryPolicy::elastic(8)},
        {"elastic + host-repair regrow", elastic_regrow},
    };
    TextTable policies("Recovery policies, identical fault timeline "
                       "(16,384 GPUs, seed 2024)");
    policies.header({"policy", "restarts", "swaps", "rebalances",
                     "shrinks", "regrows", "final dp", "lost h",
                     "goodput"});
    for (const Candidate &c : candidates) {
        TrainRunConfig cfg = productionRun();
        cfg.policy = c.policy;
        const TrainRunReport r = TrainRunSim(cfg, sim).run();
        policies.row(
            {c.name, TextTable::num(r.restarts),
             TextTable::num(r.spare_swaps),
             TextTable::num(r.rebalances),
             TextTable::num(r.dp_shrinks),
             TextTable::num(r.dp_regrows),
             TextTable::num(r.final_dp),
             TextTable::num(r.lost_seconds / 3600.0, 2),
             TextTable::pct(r.goodputFraction())});
    }
    policies.print();
    std::puts("Warm spares replace the 180 s scheduler round-trip with a\n"
              "~80 s swap; async checkpointing moves the sharded save off\n"
              "the critical path (only the DRAM snapshot blocks) and its\n"
              "shorter Young-Daly interval shrinks every rollback window;\n"
              "micro-batch rebalancing absorbs stragglers without evicting\n"
              "the host (MegaScale arXiv:2402.15627, TorchTitan\n"
              "arXiv:2410.06511).\n");

    // --- 5. Host repair + DP-regrow on a shrink-capable job. ---
    // The Table-2 batch (16 sequences per replica) cannot lose a
    // replica without breaking micro-batch divisibility, so this demo
    // runs a long-context variant — tp8 cp8 pp16 dp16 with a
    // 240-sequence batch — where dp 16 -> 15 stays legal. One spare
    // host, fatal faults only; the shrink-only and regrow runs face the
    // identical fault AND repair timelines (the repair shop draws from
    // its own RNG streams), so the delta is purely the regrow bit.
    TrainRunConfig ecfg;
    ecfg.job.par = ParallelismConfig{8, 8, 16, 16};
    ecfg.job.global_batch_tokens = 240LL * 8192;
    ecfg.job.cluster.node.gpu.straggler_mtbf_hours = 0.0;
    ecfg.job.cluster.node.nic_flap_mtbf_hours = 0.0;
    ecfg.job.cluster.node.gpu.fatal_mtbf_hours = 2000.0;
    ecfg.total_steps = 3600;
    ecfg.checkpoint_interval_steps = 20;
    ecfg.seed = 5;
    ecfg.policy = RecoveryPolicy::elastic(1);
    ecfg.repairs.gpu_repair_mean_hours = 0.2;
    ecfg.repairs.host_repair_mean_hours = 0.3;
    TrainRunConfig rcfg = ecfg;
    rcfg.policy.allow_regrow = true;
    const TrainRunSim shrink_only(ecfg);
    const TrainRunReport shrank = shrink_only.run();
    const TrainRunReport regrew = TrainRunSim(rcfg, shrink_only).run();
    TextTable regrow("Shrink-only vs DP-regrow, same fault + repair "
                     "timeline (tp8 cp8 pp16 dp16, 1 spare)");
    regrow.header({"metric", "shrink-only", "+ regrow"});
    regrow.row({"wall-clock (same steps)",
                TextTable::num(shrank.wall_seconds / 3600.0, 2) + " h",
                TextTable::num(regrew.wall_seconds / 3600.0, 2) + " h"});
    regrow.row({"fatal faults (longer run sees more)",
                TextTable::num(shrank.faults.gpu_fatal +
                               shrank.faults.host_crash),
                TextTable::num(regrew.faults.gpu_fatal +
                               regrew.faults.host_crash)});
    regrow.row({"dp shrinks", TextTable::num(shrank.dp_shrinks),
                TextTable::num(regrew.dp_shrinks)});
    regrow.row({"hosts repaired", TextTable::num(shrank.hosts_repaired),
                TextTable::num(regrew.hosts_repaired)});
    regrow.row({"dp regrows", TextTable::num(shrank.dp_regrows),
                TextTable::num(regrew.dp_regrows)});
    regrow.row({"final dp (configured 16)",
                TextTable::num(shrank.final_dp),
                TextTable::num(regrew.final_dp)});
    regrow.row({"full restarts", TextTable::num(shrank.restarts),
                TextTable::num(regrew.restarts)});
    regrow.row({"regrow outage",
                TextTable::num(shrank.regrow_seconds, 1) + " s",
                TextTable::num(regrew.regrow_seconds, 1) + " s"});
    regrow.row({"goodput",
                TextTable::num(shrank.goodput_tflops_per_gpu, 1) +
                    " TFLOPs/GPU",
                TextTable::num(regrew.goodput_tflops_per_gpu, 1) +
                    " TFLOPs/GPU"});
    regrow.print();
    std::puts("Shrink-only keeps the reduced width for the rest of the\n"
              "run and pays a full scheduler round-trip per fault once\n"
              "the pool is dry. With regrow, each repaired host is\n"
              "re-admitted at the next durable checkpoint — refilling\n"
              "the spare pool first, then growing DP back — so the\n"
              "cluster ends the run at its configured width.\n");

    // --- 6. Hierarchical tiers + partial restart, same CRN framing. ---
    // The tiered run mirrors every boundary into DP-peer HBM (a ~p2p
    // write), spills to host NVMe every 4th, and only writes the global
    // filesystem every 16th. Failure domains decide the restore tier: a
    // GpuFatal leaves both local tiers intact, so a partial-restart
    // swap reads the peer mirror and only the replacement host
    // re-fetches shards; a HostCrash destroys that host's HBM and NVMe
    // copies, so the run falls back to the global tier (counted below).
    // Each arm runs at its own Young-Daly interval: the tiered arm's
    // blocking cost is the HBM mirror, so its optimum contracts to a
    // few steps and the global write (every 16th boundary) still lands
    // more often than the global-only arm's every boundary.
    // Both arms run section 5's job, so they share its pricing.
    TrainRunConfig gcfg = ecfg;
    gcfg.checkpoint_interval_steps =
        TrainRunSim(gcfg, shrink_only).youngDalyIntervalSteps();
    TrainRunConfig hcfg = gcfg;
    hcfg.storage.hier.enabled = true;
    hcfg.policy.partial_restart = true;
    hcfg.checkpoint_interval_steps =
        TrainRunSim(hcfg, shrink_only).youngDalyIntervalSteps();
    const TrainRunReport global_only = TrainRunSim(gcfg, shrink_only).run();
    const TrainRunReport hier = TrainRunSim(hcfg, shrink_only).run();
    TextTable tiers("Global-only vs hierarchical tiers + partial "
                    "restart, same fault timeline");
    tiers.header({"metric", "global-only", "tiers+partial"});
    tiers.row({"Young-Daly interval",
               TextTable::num(gcfg.checkpoint_interval_steps) + " steps",
               TextTable::num(hcfg.checkpoint_interval_steps) + " steps"});
    tiers.row({"fatal faults",
               TextTable::num(global_only.faults.gpu_fatal +
                              global_only.faults.host_crash),
               TextTable::num(hier.faults.gpu_fatal +
                              hier.faults.host_crash)});
    tiers.row({"partial restarts", TextTable::num(global_only.partial_restarts),
               TextTable::num(hier.partial_restarts)});
    tiers.row({"tier fallbacks (HostCrash -> global)",
               TextTable::num(global_only.tier_fallbacks),
               TextTable::num(hier.tier_fallbacks)});
    const auto tier_col = [](const TrainRunReport &r, CheckpointTier t) {
        return TextTable::num(
                   r.tier_restore_seconds[static_cast<std::size_t>(t)], 1) +
               " s";
    };
    tiers.row({"restore from HBM peer tier",
               tier_col(global_only, CheckpointTier::HbmPeer),
               tier_col(hier, CheckpointTier::HbmPeer)});
    tiers.row({"restore from host NVMe tier",
               tier_col(global_only, CheckpointTier::HostLocal),
               tier_col(hier, CheckpointTier::HostLocal)});
    tiers.row({"restore from global tier",
               tier_col(global_only, CheckpointTier::Global),
               tier_col(hier, CheckpointTier::Global)});
    tiers.row({"steps lost to rollback",
               TextTable::num(global_only.steps_lost),
               TextTable::num(hier.steps_lost)});
    tiers.row({"goodput",
               TextTable::num(global_only.goodput_tflops_per_gpu, 1) +
                   " TFLOPs/GPU",
               TextTable::num(hier.goodput_tflops_per_gpu, 1) +
                   " TFLOPs/GPU"});
    tiers.print();
    std::puts("The peer mirror is priced as a single p2p transfer over\n"
              "the real topology, so checkpoint boundaries cost ~0.1 s\n"
              "instead of seconds; rollback after a fault loses steps\n"
              "since the last mirror, not the last filesystem write. The\n"
              "audit tier asserts every restore reads a tier whose copies\n"
              "actually survived the fault's blast radius.");
    return 0;
}
