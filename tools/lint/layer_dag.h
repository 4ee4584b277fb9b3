#ifndef LLM4D_TOOLS_LINT_LAYER_DAG_H_
#define LLM4D_TOOLS_LINT_LAYER_DAG_H_

/**
 * @file
 * The declared layer DAG of `src/llm4d/`: which module may include
 * which. This table is the single source of truth the `layer-violation`
 * lint rule enforces; DESIGN.md §"Layer DAG" mirrors it for humans.
 *
 * Rules of the table:
 *  - `deps` lists the *direct* modules a module's sources may include
 *    (space-separated); intra-module includes are always allowed.
 *  - `layer` is the module's height in the DAG; every dep must sit on a
 *    strictly lower layer, which is what makes cycles unrepresentable
 *    (asserted by the lint self-tests).
 *  - A module absent from this table may include nothing and be
 *    included by nothing: adding a directory under src/llm4d/ means
 *    adding a row here, deliberately.
 *
 * Keeping the table tight — deps are the edges that exist today, not
 * the edges that would be harmless — means an accidental new
 * cross-layer dependency fails the lint and forces a conscious edit of
 * this file (and of the DESIGN.md mirror) in the same change.
 */

namespace llm4d::lint {

/** One row of the declared layer DAG. */
struct LayerRow
{
    const char *module; ///< directory name under src/llm4d/
    int layer;          ///< DAG height; deps must be strictly lower
    const char *deps;   ///< space-separated allowed include targets
};

/**
 * The DAG, lowest layer first:
 *
 *   0: simcore
 *   1: tensor  hw  parallel
 *   2: net  model  debug
 *   3: cp  pp  fault
 *   4: data  fsdp
 *   5: sim
 *   6: plan
 */
inline constexpr LayerRow kLayerDag[] = {
    {"simcore", 0, ""},
    {"tensor", 1, "simcore"},
    {"hw", 1, "simcore"},
    {"parallel", 1, "simcore"},
    {"net", 2, "simcore hw parallel"},
    {"model", 2, "simcore hw"},
    {"debug", 2, "simcore tensor parallel"},
    {"cp", 3, "simcore tensor hw net"},
    {"pp", 3, "simcore model"},
    {"fault", 3, "simcore hw parallel net model"},
    {"data", 4, "simcore tensor cp"},
    {"fsdp", 4, "simcore model net pp"},
    {"sim", 5, "simcore tensor hw parallel net model debug cp pp fsdp fault"},
    {"plan", 6, "simcore tensor hw parallel net model cp pp fsdp fault sim"},
};

} // namespace llm4d::lint

#endif // LLM4D_TOOLS_LINT_LAYER_DAG_H_
