#ifndef LLM4D_SIMCORE_COMMON_H_
#define LLM4D_SIMCORE_COMMON_H_

/**
 * @file
 * Project-wide error handling and small utilities.
 *
 * Follows the gem5 distinction between panic() (an internal invariant was
 * violated: a bug in llm4d itself) and fatal() (the user supplied an
 * impossible configuration). Both print a message with source location and
 * terminate, but they communicate different things to the reader.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace llm4d {

namespace detail {

[[noreturn]] void
terminate(const char *kind, const char *file, int line, const std::string &msg);

} // namespace detail

/** Abort due to an internal invariant violation (a bug in llm4d). */
#define LLM4D_PANIC(msg)                                                     \
    ::llm4d::detail::terminate("panic", __FILE__, __LINE__,                  \
                               (::std::ostringstream{} << msg).str())

/** Abort due to an invalid user-provided configuration. */
#define LLM4D_FATAL(msg)                                                     \
    ::llm4d::detail::terminate("fatal", __FILE__, __LINE__,                  \
                               (::std::ostringstream{} << msg).str())

/** Invariant check; active in all build types (simulation must be exact). */
#define LLM4D_ASSERT(cond, msg)                                              \
    do {                                                                     \
        if (!(cond)) {                                                       \
            LLM4D_PANIC("assertion failed: " #cond ": " << msg);             \
        }                                                                    \
    } while (0)

/** Configuration check: like LLM4D_ASSERT but blames the user, not llm4d. */
#define LLM4D_CHECK(cond, msg)                                               \
    do {                                                                     \
        if (!(cond)) {                                                       \
            LLM4D_FATAL("invalid configuration: " #cond ": " << msg);        \
        }                                                                    \
    } while (0)

/** Integer ceiling division for non-negative operands. */
constexpr std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

} // namespace llm4d

#endif // LLM4D_SIMCORE_COMMON_H_
