#!/usr/bin/env bash
# Run the CLI's demo chain into OUTDIR and keep each step's stdout and stderr:
#
#     scripts/demo_chain.sh OUTDIR
#
# synth --locations 4 --seed 7, then train, predict, evaluate,
# optimize --dump-samples and pipeline, with drtopt imported from the src/ of
# the checkout this script sits in.  The demo lands in OUTDIR/demo and the
# logs in OUTDIR/logs/<step>.stdout and .stderr.  Every path the program sees
# is relative to OUTDIR, so two checkouts whose output has not changed leave
# trees that `diff -r` finds identical.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
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
step train train --config demo/config.json
step predict predict --config demo/config.json --model demo/out/model.json
step evaluate evaluate --config demo/config.json --model demo/out/model.json
step optimize optimize --config demo/config.json --model demo/out/model.json --dump-samples
step pipeline pipeline --config demo/config.json --model demo/out/model.json
