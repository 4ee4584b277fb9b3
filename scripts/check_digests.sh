#!/usr/bin/env bash
# Check that perfbench still gives the reports checked in at
# BENCH_digests.json:
#
#   scripts/check_digests.sh
#
# For every workload and seed listed there, runs
#   python3 perfbench/run.py --workload <workload> --seconds 1 --seed <seed>
# (the first run builds perfbench into .bench_build/), requires
# "failed": 0 in its JSON result, and compares the digest it prints, a
# hash of the first 16 timed queries' report bits, with the listed one.
# Exits non-zero on any failed query or digest mismatch. A change that
# alters reports on purpose updates BENCH_digests.json and says why in
# CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

expected=$(python3 -c '
import json, sys
for workload, seeds in json.load(open(sys.argv[1]))["digests"].items():
    for seed, digest in seeds.items():
        print(workload, seed, digest)
' BENCH_digests.json)

status=0
while read -r workload seed want; do
    out=$(python3 perfbench/run.py --workload "${workload}" --seconds 1 \
        --seed "${seed}" < /dev/null) || true
    got=$(awk '/^digest/ { print $2 }' <<< "${out}")
    if ! tail -n 1 <<< "${out}" | grep -q '"failed": 0'; then
        echo "FAILED     ${workload} seed ${seed}: a query failed or the run did not finish"
        status=1
    elif [[ ${got} != "${want}" ]]; then
        echo "DIFFERENT  ${workload} seed ${seed}: ${got:-none}, expected ${want}"
        status=1
    else
        echo "same       ${workload} seed ${seed}: ${got}"
    fi
done <<< "${expected}"

if [[ ${status} -ne 0 ]]; then
    echo "perfbench reports differ from BENCH_digests.json." >&2
fi
exit "${status}"
