#include "llm4d/fault/repair_model.h"

#include <algorithm>
#include <sstream>

#include "llm4d/simcore/common.h"
#include "llm4d/simcore/rng_streams.h"

namespace llm4d {

namespace {

constexpr double kSecondsPerHour = 3600.0;

} // namespace

void
RepairTuning::validate() const
{
    LLM4D_CHECK(gpu_repair_mean_hours > 0.0,
                "gpu repair mean must be positive");
    LLM4D_CHECK(host_repair_mean_hours > 0.0,
                "host repair mean must be positive");
    LLM4D_CHECK(requalify_lo >= 1.0 && requalify_lo <= requalify_hi,
                "requalify range must satisfy 1 <= lo <= hi");
}

double
RepairTuning::meanRepairSeconds(FaultKind kind) const
{
    LLM4D_CHECK(kind == FaultKind::GpuFatal ||
                    kind == FaultKind::HostCrash,
                "only fatal classes pass through the repair shop");
    const double mean_hours = kind == FaultKind::GpuFatal
                                  ? gpu_repair_mean_hours
                                  : host_repair_mean_hours;
    return mean_hours * kSecondsPerHour * 0.5 *
           (requalify_lo + requalify_hi);
}

std::string
RepairComplete::str() const
{
    std::ostringstream os;
    os << "t=" << timeToSeconds(when) << "s repaired "
       << toString(kind)
       << (kind == FaultKind::HostCrash ? " node=" : " gpu=") << component;
    return os.str();
}

RepairModel::RepairModel(const ClusterSpec &cluster,
                         const RepairTuning &tuning, std::uint64_t seed)
    : tuning_(tuning), gpu_rng_(seed, rng_streams::kGpuRepairStream),
      host_rng_(seed, rng_streams::kHostRepairStream)
{
    tuning_.validate();
    LLM4D_CHECK(cluster.num_nodes > 0,
                "repair shop needs a non-empty cluster");
}

void
RepairModel::submit(const FaultEvent &fault)
{
    LLM4D_CHECK(fault.fatal(),
                "only fatal faults pass through the repair shop");
    Rng &rng =
        fault.kind == FaultKind::GpuFatal ? gpu_rng_ : host_rng_;
    const double mean_hours = fault.kind == FaultKind::GpuFatal
                                  ? tuning_.gpu_repair_mean_hours
                                  : tuning_.host_repair_mean_hours;
    const double turnaround_s =
        rng.exponential(mean_hours * kSecondsPerHour) *
        rng.uniform(tuning_.requalify_lo, tuning_.requalify_hi);
    RepairComplete done;
    done.kind = fault.kind;
    // A turnaround past the end of the clock never completes.
    done.when = fault.when + drawnDuration(fault.when, turnaround_s);
    done.component = fault.component;
    pending_.emplace(done.when, done);
}

bool
RepairModel::hasReady(Time now) const
{
    return !pending_.empty() && pending_.begin()->first <= now;
}

std::optional<Time>
RepairModel::earliestCompletion() const
{
    if (pending_.empty())
        return std::nullopt;
    return pending_.begin()->first;
}

RepairComplete
RepairModel::pop()
{
    LLM4D_CHECK(!pending_.empty(), "no repair to pop");
    const RepairComplete done = pending_.begin()->second;
    pending_.erase(pending_.begin());
    return done;
}

std::size_t
RepairModel::pendingCount() const
{
    return pending_.size();
}

} // namespace llm4d
