#ifndef LLM4D_PARALLEL_PARALLELISM_H_
#define LLM4D_PARALLEL_PARALLELISM_H_

/**
 * @file
 * 4D parallelism configuration and the rank grid.
 *
 * The parallelism dimensions are ordered [TP, CP, PP, DP] from innermost
 * (consecutive global ranks, highest-bandwidth links) to outermost, per
 * the analysis in paper Section 5.2: TP communicates most often and is
 * fully exposed, so it gets NVLink; DP communicates once per step and
 * overlaps with compute, so it tolerates the slowest links.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace llm4d {

/** Sizes of the four parallelism dimensions. */
struct ParallelismConfig
{
    std::int64_t tp = 1; ///< tensor parallel degree
    std::int64_t cp = 1; ///< context parallel degree
    std::int64_t pp = 1; ///< pipeline parallel degree
    std::int64_t dp = 1; ///< (fully sharded) data parallel degree

    /** Total GPU count tp*cp*pp*dp. */
    std::int64_t worldSize() const { return tp * cp * pp * dp; }

    /** Degree of model parallelism (tp*pp). */
    std::int64_t modelParallelSize() const { return tp * pp; }

    /** "tp8 cp2 pp16 dp64"-style label. */
    std::string str() const;

    /** Abort unless all degrees are positive. */
    void validate() const;

    bool operator==(const ParallelismConfig &) const = default;
};

/** Position of a rank along each parallelism axis. */
struct RankCoord
{
    std::int64_t tp = 0;
    std::int64_t cp = 0;
    std::int64_t pp = 0;
    std::int64_t dp = 0;

    bool operator==(const RankCoord &) const = default;
};

/**
 * A rank group as the network prices it: its member count and its
 * lowest and highest global rank. The widest level a group spans
 * follows from its two ends alone (Topology::levelOf), so a collective
 * over a group needs no member list.
 */
struct RankSpan
{
    std::int64_t size = 1;  ///< member count
    std::int64_t first = 0; ///< lowest global rank
    std::int64_t last = 0;  ///< highest global rank

    /** The span of an explicit member list: one min/max pass. */
    static RankSpan of(const std::vector<std::int64_t> &ranks);

    bool operator==(const RankSpan &) const = default;
};

/**
 * Bidirectional mapping between global ranks and 4D coordinates, plus
 * process-group construction along each axis. Ranks grow with every
 * coordinate, so each group's span follows from the axis strides in
 * O(1), without building the group.
 */
class RankGrid
{
  public:
    /** Build the grid for a validated configuration. */
    explicit RankGrid(const ParallelismConfig &cfg);

    const ParallelismConfig &config() const { return cfg_; }

    /** Total rank count. */
    std::int64_t worldSize() const { return cfg_.worldSize(); }

    /** Coordinates of a global rank. */
    RankCoord coordOf(std::int64_t rank) const;

    /** Global rank of a coordinate. */
    std::int64_t rankOf(const RankCoord &coord) const;

    /** Ranks sharing every coordinate with @p rank except the TP axis. */
    std::vector<std::int64_t> tpGroup(std::int64_t rank) const;

    /** Ranks sharing every coordinate with @p rank except the CP axis. */
    std::vector<std::int64_t> cpGroup(std::int64_t rank) const;

    /** Ranks sharing every coordinate with @p rank except the PP axis. */
    std::vector<std::int64_t> ppGroup(std::int64_t rank) const;

    /** Ranks sharing every coordinate with @p rank except the DP axis. */
    std::vector<std::int64_t> dpGroup(std::int64_t rank) const;

    /**
     * The group FSDP parameter/gradient collectives actually run over:
     * DP and CP combined (paper Section 4 "CP can be seen as an extension
     * of DP when communicating model parameters").
     */
    std::vector<std::int64_t> dpCpGroup(std::int64_t rank) const;

    /** The spans of the groups above, in O(1): tpSpan(r) equals
     *  RankSpan::of(tpGroup(r)), and so on. @{ */
    RankSpan tpSpan(std::int64_t rank) const;
    RankSpan cpSpan(std::int64_t rank) const;
    RankSpan ppSpan(std::int64_t rank) const;
    RankSpan dpSpan(std::int64_t rank) const;
    RankSpan dpCpSpan(std::int64_t rank) const;
    /** @} */

    /** All distinct groups along an axis, for trace analysis. @{ */
    std::vector<std::vector<std::int64_t>> allTpGroups() const;
    std::vector<std::vector<std::int64_t>> allCpGroups() const;
    std::vector<std::vector<std::int64_t>> allPpGroups() const;
    std::vector<std::vector<std::int64_t>> allDpGroups() const;
    /** @} */

  private:
    enum class Axis { Tp, Cp, Pp, Dp };

    std::vector<std::int64_t> axisGroup(std::int64_t rank, Axis axis) const;
    RankSpan axisSpan(std::int64_t rank, Axis axis) const;
    std::vector<std::vector<std::int64_t>> allGroups(Axis axis) const;

    ParallelismConfig cfg_;
};

} // namespace llm4d

#endif // LLM4D_PARALLEL_PARALLELISM_H_
