#include "llm4d/hw/gpu_spec.h"

#include "llm4d/simcore/common.h"

namespace llm4d {

GpuSpec
GpuSpec::h100Sxm()
{
    return GpuSpec{};
}

GpuSpec
GpuSpec::h100Hbm2e()
{
    GpuSpec spec;
    spec.name = "H100-HBM2e";
    spec.hbm_bw_gbps = 2000.0;
    spec.tdp_watts = 350.0;
    return spec;
}

namespace {

/** Events/hour contributed by @p components parts of the given MTBF. */
double
classRate(std::int64_t components, double mtbf_hours)
{
    if (mtbf_hours <= 0.0)
        return 0.0;
    return static_cast<double>(components) / mtbf_hours;
}

} // namespace

double
ClusterSpec::failuresPerHour() const
{
    const std::int64_t gpus = numGpus();
    return classRate(gpus, node.gpu.fatal_mtbf_hours) +
           classRate(gpus, node.gpu.straggler_mtbf_hours) +
           classRate(num_nodes, node.host_mtbf_hours) +
           classRate(gpus, node.nic_flap_mtbf_hours);
}

double
ClusterSpec::fatalFailuresPerHour() const
{
    return classRate(numGpus(), node.gpu.fatal_mtbf_hours) +
           classRate(num_nodes, node.host_mtbf_hours);
}

ClusterSpec
ClusterSpec::llama3Production(std::int64_t num_gpus)
{
    ClusterSpec spec;
    LLM4D_CHECK(num_gpus % spec.node.gpus_per_node == 0,
                "cluster size must be a whole number of 8-GPU nodes");
    spec.num_nodes = num_gpus / spec.node.gpus_per_node;
    return spec;
}

} // namespace llm4d
