#!/usr/bin/env bash
# Write every bench and example report of a build into a directory:
#
#   scripts/write_reports.sh <build-dir> <out-dir>
#
# Runs, from <build-dir>:
#   - every bench_* binary except bench_microbench, whose timings differ
#     from run to run;
#   - bench_goodput and bench_goodput_planner again with --smoke;
#   - every example.
# Each report is <out-dir>/bench/<name>.txt (the smoke runs are
# <name>--smoke.txt) or <out-dir>/examples/<name>.txt: the binary's
# stdout and stderr, then a last line "exit <status>". These are the one
# list of reports that scripts/same_reports.sh compares across commits
# and scripts/check_reports.sh compares with the checked-in reports/.
# A failing binary still gets its report, so a comparison catches it.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 <build-dir> <out-dir>" >&2
    exit 2
fi
build=$1
out=$2
mkdir -p "${out}/bench" "${out}/examples"

# report <file> <binary> [args...]
report() {
    local file=$1 binary=$2
    shift 2
    if [[ ! -x ${binary} ]]; then
        echo "missing" > "${file}"
        return
    fi
    local status=0
    "${binary}" "$@" > "${file}" 2>&1 || status=$?
    echo "exit ${status}" >> "${file}"
}

for path in "${build}"/bench/bench_*; do
    name=$(basename "${path}")
    [[ ${name} == bench_microbench ]] && continue
    report "${out}/bench/${name}.txt" "${path}"
done
for name in bench_goodput bench_goodput_planner; do
    report "${out}/bench/${name}--smoke.txt" "${build}/bench/${name}" --smoke
done
for path in "${build}"/examples/*; do
    [[ -f ${path} && -x ${path} ]] || continue
    report "${out}/examples/$(basename "${path}").txt" "${path}"
done
