#!/usr/bin/env bash
# One-command pre-merge gate, five tiers:
#
#   1. default  — -Werror build + full test suite (includes the lint
#                 self-tests and the tree-is-lint-clean gate), then the
#                 report gate (scripts/check_reports.sh): runs every
#                 bench except bench_microbench, both goodput benches
#                 again with --smoke, and every example, and diffs each
#                 output and exit status against the copy checked in at
#                 reports/ (about a second). A change that alters a
#                 report on purpose regenerates reports/ with
#                 scripts/write_reports.sh.
#   2. lint     — llm4d_lint over src/ bench/ examples/ tests/ tools/
#                 (determinism rules + layer-DAG / include-cycle / RNG
#                 stream registry passes, with a per-rule summary
#                 table), plus clang-tidy over the compile database
#                 when clang-tidy is installed (skipped with a note
#                 otherwise)
#   3. sanitize — ASan + UBSan + float-divide-by-zero build, all tests
#   4. audit    — runtime invariant auditor build (-DLLM4D_AUDIT=ON),
#                 all tests + the audit death tests
#   5. tsan     — ThreadSanitizer build, the concurrency tests (selected
#                 by name: death tests fork, which TSan handles poorly
#                 in a threaded process)
#
#   ./scripts/check.sh          # all five tiers
#   ./scripts/check.sh --fast   # tier 1 + lint only
#   ./scripts/check.sh --lint   # lint only (assumes an existing build/)
#
# Suites also carry ctest labels for targeted runs from build/:
#   ctest -L plan | -L fault | -L sim | -L net    # one subsystem's suite
#
# Exits non-zero on the first failing build, test, or lint finding.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
lint_only=0
for arg in "$@"; do
    case "$arg" in
    --fast) fast=1 ;;
    --lint) lint_only=1 ;;
    *)
        echo "usage: $0 [--fast|--lint]" >&2
        exit 2
        ;;
    esac
done

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

run_lint() {
    echo "== lint: llm4d_lint (determinism + architecture rules) =="
    if [[ ! -x build/tools/lint/llm4d_lint ]]; then
        cmake --preset default -DLLM4D_WERROR=ON
        cmake --build --preset default -j "${jobs}" --target llm4d_lint
    fi
    # --summary prints the per-rule violation-count table at the end.
    ./build/tools/lint/llm4d_lint --root . --summary

    if command -v clang-tidy > /dev/null 2>&1; then
        echo "== lint: clang-tidy (.clang-tidy profile) =="
        # The compile database is exported by every configure; lint the
        # library and tool sources (tests inherit the same headers).
        find src tools -name '*.cc' -print0 |
            xargs -0 -P "${jobs}" -n 8 clang-tidy -p build --quiet
    else
        echo "== lint: clang-tidy not installed; skipping tidy pass =="
    fi
}

if [[ "${lint_only}" -eq 1 ]]; then
    run_lint
    echo "Lint passed."
    exit 0
fi

echo "== tier 1: default -Werror build + full test suite + reports =="
cmake --preset default -DLLM4D_WERROR=ON
cmake --build --preset default -j "${jobs}"
ctest --preset default
./scripts/check_reports.sh build

run_lint

if [[ "${fast}" -eq 1 ]]; then
    echo "Tier 1 + lint passed (--fast: sanitize, audit and tsan tiers skipped)."
    exit 0
fi

echo "== tier 2: ASan + UBSan build + sanitize-labeled tests =="
cmake --preset sanitize -DLLM4D_WERROR=ON
cmake --build --preset sanitize -j "${jobs}"
ctest --preset sanitize

echo "== tier 3: runtime invariant auditor build + audit-labeled tests =="
cmake --preset audit -DLLM4D_WERROR=ON
cmake --build --preset audit -j "${jobs}"
ctest --preset audit

echo "== tier 4: ThreadSanitizer build + concurrency tests =="
cmake --preset tsan -DLLM4D_WERROR=ON
cmake --build --preset tsan -j "${jobs}"
ctest --preset tsan

echo "All checks passed."
