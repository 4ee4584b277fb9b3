#include "llm4d/fault/fault_model.h"

#include <cmath>
#include <sstream>

#include "llm4d/simcore/common.h"
#include "llm4d/simcore/rng_streams.h"

namespace llm4d {

namespace {

constexpr double kSecondsPerHour = 3600.0;

/** Per-class RNG stream ids, indexed by FaultKind; registered in
 *  simcore/rng_streams.h so disjointness from other models is audited. */
constexpr std::uint64_t kClassStream[kNumFaultKinds] = {
    rng_streams::kFaultGpuFatalStream, rng_streams::kFaultHostCrashStream,
    rng_streams::kFaultLinkFlapStream,
    rng_streams::kFaultStragglerOnsetStream};

} // namespace

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::GpuFatal:
        return "GpuFatal";
      case FaultKind::HostCrash:
        return "HostCrash";
      case FaultKind::LinkFlap:
        return "LinkFlap";
      case FaultKind::StragglerOnset:
        return "StragglerOnset";
    }
    LLM4D_PANIC("unreachable fault kind");
}

const char *
toString(BlastRadius radius)
{
    switch (radius) {
      case BlastRadius::None:
        return "None";
      case BlastRadius::Gpu:
        return "Gpu";
      case BlastRadius::Host:
        return "Host";
    }
    LLM4D_PANIC("unreachable blast radius");
}

BlastRadius
faultBlastRadius(FaultKind kind)
{
    switch (kind) {
      case FaultKind::GpuFatal:
        return BlastRadius::Gpu;
      case FaultKind::HostCrash:
        return BlastRadius::Host;
      case FaultKind::LinkFlap:
      case FaultKind::StragglerOnset:
        return BlastRadius::None;
    }
    LLM4D_PANIC("unreachable fault kind");
}

std::string
FaultEvent::str() const
{
    std::ostringstream os;
    os << "t=" << timeToSeconds(when) << "s " << toString(kind)
       << (kind == FaultKind::HostCrash ? " node=" : " gpu=") << component;
    if (kind == FaultKind::StragglerOnset)
        os << " speed=" << severity;
    if (kind == FaultKind::LinkFlap)
        os << " capacity=" << severity << " for "
           << timeToSeconds(duration) << "s";
    return os.str();
}

void
FaultTuning::validate() const
{
    LLM4D_CHECK(straggler_speed_lo > 0.0 &&
                    straggler_speed_hi < 1.0 &&
                    straggler_speed_lo <= straggler_speed_hi,
                "straggler speed range must satisfy 0 < lo <= hi < 1");
    LLM4D_CHECK(flap_capacity_lo > 0.0 && flap_capacity_hi <= 1.0 &&
                    flap_capacity_lo <= flap_capacity_hi,
                "flap capacity range must satisfy 0 < lo <= hi <= 1");
    LLM4D_CHECK(flap_duration_mean_s > 0.0,
                "flap duration mean must be positive");
    LLM4D_CHECK(flap_capacity_lo >= kMinLinkCapacity,
                "flap link capacity factor must be in ["
                    << kMinLinkCapacity << ", 1], got " << flap_capacity_lo);
    colocation.validate();
}

FaultModel::FaultModel(const ClusterSpec &cluster, const FaultTuning &tuning,
                       std::uint64_t seed)
    : cluster_(cluster), tuning_(tuning)
{
    tuning_.validate();
    const std::int64_t gpus = cluster_.numGpus();
    const auto setup = [&](FaultKind kind, std::int64_t components,
                           double mtbf_hours) {
        ClassState &cs = classes_[static_cast<int>(kind)];
        cs.components = components;
        cs.rng = Rng(seed, kClassStream[static_cast<int>(kind)]);
        if (mtbf_hours <= 0.0 || components <= 0) {
            cs.rate_per_second = 0.0;
            cs.next_at = kNever;
            return;
        }
        cs.rate_per_second = static_cast<double>(components) /
                             (mtbf_hours * kSecondsPerHour);
        cs.next_at = 0;
        advance(static_cast<int>(kind));
    };
    setup(FaultKind::GpuFatal, gpus, cluster_.node.gpu.fatal_mtbf_hours);
    setup(FaultKind::HostCrash, cluster_.num_nodes,
          cluster_.node.host_mtbf_hours);
    setup(FaultKind::LinkFlap, gpus, cluster_.node.nic_flap_mtbf_hours);
    setup(FaultKind::StragglerOnset, gpus,
          cluster_.node.gpu.straggler_mtbf_hours);
    // Correlated stragglers: hand the class's arrival sampling to the
    // pod-heat model on its own registered streams. The class stream was
    // constructed (and advanced once) above exactly as in the
    // independent mode; it simply goes unread from here, so every other
    // class's timeline is bit-identical with correlation on or off.
    ClassState &scs = classes_[static_cast<int>(FaultKind::StragglerOnset)];
    if (tuning_.colocation.enabled && scs.rate_per_second > 0.0) {
        heat_.emplace(cluster_, tuning_.colocation, scs.rate_per_second,
                      tuning_.straggler_speed_lo,
                      tuning_.straggler_speed_hi, seed);
        pending_onset_ = heat_->sampleOnset(0);
        scs.next_at = pending_onset_.when;
    }
}

void
FaultModel::advance(int k)
{
    ClassState &cs = classes_[k];
    // A gap past the end of the clock lands on kNever: the class never
    // fires again.
    cs.next_at += drawnDuration(
        cs.next_at, cs.rng.exponential(1.0 / cs.rate_per_second));
}

FaultEvent
FaultModel::next()
{
    LLM4D_CHECK(!silent(),
                "cannot draw fault events: every class is disabled");
    // Earliest class wins; ties break on class order for determinism.
    int best = -1;
    for (int k = 0; k < kNumFaultKinds; ++k) {
        if (classes_[k].next_at == kNever) // lint:allow(time-eq)
            continue;
        if (best < 0 || classes_[k].next_at < classes_[best].next_at)
            best = k;
    }
    if (best < 0) // every enabled class has drawn past the end of the clock
        return FaultEvent{.when = kNever};
    ClassState &cs = classes_[best];
    FaultEvent ev;
    ev.kind = static_cast<FaultKind>(best);
    ev.when = cs.next_at;
    if (ev.kind == FaultKind::StragglerOnset && heat_) {
        // Correlated path: the pod-heat model already drew the full
        // event (arrival, victim, severity) on its own streams; emit it
        // and pre-sample the next so next_at stays ahead of the clock.
        ev.component = pending_onset_.rank;
        ev.severity = pending_onset_.severity;
        pending_onset_ = heat_->sampleOnset(ev.when);
        cs.next_at = pending_onset_.when;
        return ev;
    }
    // Component and severity come from the same class stream as the
    // arrival gap, so one stream per class fully determines its timeline.
    ev.component = cs.rng.uniformInt(0, cs.components - 1);
    switch (ev.kind) {
      case FaultKind::StragglerOnset:
        ev.severity = cs.rng.uniform(tuning_.straggler_speed_lo,
                                     tuning_.straggler_speed_hi);
        break;
      case FaultKind::LinkFlap:
        ev.severity = cs.rng.uniform(tuning_.flap_capacity_lo,
                                     tuning_.flap_capacity_hi);
        // A flap lasts at most to the end of the clock.
        ev.duration = drawnDuration(
            ev.when, cs.rng.exponential(tuning_.flap_duration_mean_s));
        break;
      case FaultKind::GpuFatal:
      case FaultKind::HostCrash:
        break;
    }
    advance(best);
    return ev;
}

bool
FaultModel::silent() const
{
    for (const ClassState &cs : classes_)
        if (cs.rate_per_second > 0.0)
            return false;
    return true;
}

} // namespace llm4d
