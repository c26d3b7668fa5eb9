#!/usr/bin/env bash
# Smoke-run the benchmark: one short run of each workload untraced, then
# shuttle4-gboost (the one whose allocations bind) and both linear workloads
# traced:
#
#     scripts/bench_smoke.sh
#
# Each run must report `correct` with 0 failed operations, and a traced linear
# run must report `qr.lp_solves` 0: every linear level there is certified, so
# the counter counts HiGHS fallbacks only.  The runs use perfbench/run.py of
# the checkout this script sits in, with one BLAS thread; their output goes to
# a temporary directory, removed on exit.  Exits non-zero on the first run
# that fails, naming its workload and trace flag.
set -euo pipefail

if [ $# -ne 0 ]; then
    echo "usage: $0" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT

for run in "campus4-linear 0" "shuttle4-gboost 0" "campus5-nu3 0" "shuttle4-gboost 1" "campus4-linear 1" "campus5-nu3 1"; do
    set -- $run
    name="$1 --trace $2"
    log="$logs/$1-trace$2.log"
    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 "$root/perfbench/run.py" --workload "$1" --seed 1 --seconds 1 --trace "$2" \
        | tee "$log" || { echo "$0: $name: the run failed" >&2; exit 1; }
    tail -n 1 "$log" | python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); ok = r["correct"] is True and r["failed"] == 0; sys.exit(0 if ok else "%s: benchmark run not clean: correct=%s failed=%s" % (sys.argv[1], r["correct"], r["failed"]))' "$name"
    if [ "$2" = 1 ] && [ "$1" != shuttle4-gboost ]; then
        tail -n 1 "$log" | python3 -c 'import json, sys; n = json.loads(sys.stdin.read())["metrics"]["qr.lp_solves"]["value"]; sys.exit(0 if n == 0 else "%s: %s quantile levels fell back to HiGHS (qr.lp_solves)" % (sys.argv[1], n))' "$name"
    fi
done
