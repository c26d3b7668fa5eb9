#!/usr/bin/env bash
# Run the CLI's demo chain into OUTDIR and keep each step's stdout and stderr:
#
#     scripts/demo_chain.sh OUTDIR [FAMILY [seasonal]]
#
# synth --locations 4 --seed 7, then train, predict, evaluate,
# optimize --dump-samples and pipeline, with drtopt imported from the src/ of
# the checkout this script sits in.  FAMILY (linear, the default, hp or
# gboost) replaces the model family of the config that synth writes, and a
# third argument `seasonal` sets its model.seasonal_normalize; the other
# model settings keep their defaults.  The demo lands in OUTDIR/demo
# and the logs in OUTDIR/logs/<step>.stdout and .stderr.  Every path the
# program sees is relative to OUTDIR, so two checkouts whose output has not
# changed leave trees that `diff -r` finds identical.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 3 ] || { [ $# -eq 3 ] && [ "$3" != seasonal ]; }; then
    echo "usage: $0 OUTDIR [FAMILY [seasonal]]" >&2
    exit 2
fi
family=${2:-linear}
seasonal=${3:+true}
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1/logs"
out=$(cd "$1" && pwd)

step() {
    local name=$1
    shift
    (cd "$out" && PYTHONPATH="$root/src" python3 -c \
        'import sys; from drtopt.cli import main; sys.exit(main(sys.argv[1:]))' "$@") \
        >"$out/logs/$name.stdout" 2>"$out/logs/$name.stderr"
}

step synth synth --out-dir demo --locations 4 --seed 7
if [ "$family" != linear ] || [ -n "$seasonal" ]; then
    python3 - "$out/demo/config.json" "$family" "$seasonal" <<'PY'
import json, sys

path, family, seasonal = sys.argv[1:]
with open(path, encoding="utf-8") as fh:
    doc = json.load(fh)
doc["model"]["family"] = family
if seasonal:
    doc["model"]["seasonal_normalize"] = True
with open(path, "w", encoding="utf-8") as fh:
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")
PY
fi
step train train --config demo/config.json
step predict predict --config demo/config.json --model demo/out/model.json
step evaluate evaluate --config demo/config.json --model demo/out/model.json
step optimize optimize --config demo/config.json --model demo/out/model.json --dump-samples
step pipeline pipeline --config demo/config.json --model demo/out/model.json
