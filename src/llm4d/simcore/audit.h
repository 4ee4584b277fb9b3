#ifndef LLM4D_SIMCORE_AUDIT_H_
#define LLM4D_SIMCORE_AUDIT_H_

/**
 * @file
 * Runtime invariant auditor (the third pre-merge gate, after tier-1 and
 * the sanitizers).
 *
 * Every headline result in this repo rests on the simulator being
 * bit-deterministic and its accounting being conservative: CRN
 * winner-dominance comparisons, warm-spare-vs-restart orderings, and the
 * Young-Daly optima are all meaningless if the event engine reorders
 * same-time events or a lost-time bucket silently leaks. The sanitizers
 * cannot catch either failure mode — both are perfectly well-defined C++.
 *
 * Building with -DLLM4D_AUDIT=ON (the `audit` CMake preset) compiles
 * redundant cross-checks into the hot paths of simcore::Engine
 * (event-time monotonicity, FIFO tie-break integrity across
 * cancellation) and sim::TrainRunSim (the lost-time breakdown buckets
 * must sum to the wall clock; rollback must never touch durable
 * progress). A violated invariant aborts with a
 * structured `audit[<subsystem>]` message so CI output is greppable.
 *
 * In regular builds every check compiles to nothing; audit state fields
 * and helpers are guarded by LLM4D_AUDIT_ENABLED so the default build
 * pays zero bytes and zero cycles.
 */

#include "llm4d/simcore/common.h"

#if defined(LLM4D_AUDIT) && LLM4D_AUDIT
#define LLM4D_AUDIT_ENABLED 1
#else
#define LLM4D_AUDIT_ENABLED 0
#endif

#if LLM4D_AUDIT_ENABLED

/**
 * Audited invariant: abort with a structured message when @p cond fails.
 * @p subsystem must be a string literal ("engine", "sim").
 */
#define LLM4D_AUDIT_CHECK(subsystem, cond, msg)                              \
    do {                                                                     \
        if (!(cond)) {                                                       \
            LLM4D_PANIC("audit[" subsystem "] invariant violated: " #cond    \
                        ": " << msg);                                        \
        }                                                                    \
    } while (0)

#else

#define LLM4D_AUDIT_CHECK(subsystem, cond, msg)                              \
    do {                                                                     \
    } while (0)

#endif // LLM4D_AUDIT_ENABLED

#endif // LLM4D_SIMCORE_AUDIT_H_
