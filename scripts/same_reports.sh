#!/usr/bin/env bash
# Check that the working tree gives the same reports as an older commit:
#
#   scripts/same_reports.sh <rev>
#
# Exports <rev> with `git archive` into a temporary directory, builds it
# and the working tree (each in a build directory of its own), and then
# compares, byte for byte:
#   - every bench and example report that scripts/write_reports.sh
#     writes, exit status included;
#   - the perfbench digest for seeds 1-5 on every workload, each run also
#     required to report "failed": 0.
# Exits non-zero if anything differs or fails. Two full builds take a
# few minutes, so CI does not run it; run it before claiming that a
# change keeps every report bit-identical.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
rev=$1
jobs=$(nproc 2>/dev/null || echo 4)
tmp=$(mktemp -d)
trap 'rm -rf "${tmp}"' EXIT

mkdir "${tmp}/old"
git archive "${rev}" | tar -x -C "${tmp}/old"

for tree in old new; do
    src=$([[ ${tree} == old ]] && echo "${tmp}/old" || pwd)
    echo "== building ${tree} tree (${src}) =="
    cmake -S "${src}" -B "${tmp}/${tree}-build" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > "${tmp}/${tree}-build.log"
    cmake --build "${tmp}/${tree}-build" -j "${jobs}" \
        >> "${tmp}/${tree}-build.log"
done

status=0

# The working tree's write_reports.sh writes both trees' reports.
for tree in old new; do
    scripts/write_reports.sh "${tmp}/${tree}-build" "${tmp}/${tree}-reports"
done
while read -r report; do
    if cmp -s "${tmp}/old-reports/${report}" "${tmp}/new-reports/${report}"
    then
        echo "same       ${report}"
    else
        echo "DIFFERENT  ${report}"
        status=1
    fi
done < <(cd "${tmp}" && find old-reports new-reports -type f |
    sed 's|^[a-z]*-reports/||' | sort -u)

# perfbench builds its own tree (.bench_build/) inside each checkout.
for workload in run_degraded plan_sweep; do
    for seed in 1 2 3 4 5; do
        digests=()
        for src in "${tmp}/old" "$(pwd)"; do
            out=$(python3 "${src}/perfbench/run.py" --workload "${workload}" \
                --seconds 1 --seed "${seed}" 2> /dev/null) || true
            if ! grep -q '"failed": 0' <<< "${out}"; then
                echo "FAILED     perfbench ${workload} seed ${seed} (${src})"
                status=1
            fi
            digest=$(awk '/^digest/ { print $2 }' <<< "${out}")
            digests+=("${digest:-none}")
        done
        if [[ ${digests[0]} == "${digests[1]}" && ${digests[0]} != none ]]; then
            echo "same       perfbench ${workload} seed ${seed}: ${digests[0]}"
        else
            echo "DIFFERENT  perfbench ${workload} seed ${seed}:" \
                "${digests[0]} vs ${digests[1]}"
            status=1
        fi
    done
done

if [[ ${status} -eq 0 ]]; then
    echo "Same reports as ${rev}."
else
    echo "Reports differ from ${rev}." >&2
fi
exit "${status}"
