#!/usr/bin/env bash
# Check that a build prints the bench and example reports checked in at
# reports/:
#
#   scripts/check_reports.sh [build-dir]    # default: build/
#
# Writes every report with scripts/write_reports.sh into a temporary
# directory and diffs it against reports/, so a changed line, a new or
# a missing report, and a changed exit status all fail. Takes about a
# second after the build. A change that alters a report on purpose
# regenerates the copies with
#   scripts/write_reports.sh build reports
# and says why in CHANGES.md.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$(cd "${1:-${root}/build}" && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "${tmp}"' EXIT

"${root}/scripts/write_reports.sh" "${build}" "${tmp}"
if diff -r -u "${root}/reports" "${tmp}"; then
    echo "Same reports as reports/."
else
    echo "Reports differ from reports/." >&2
    exit 1
fi
