#!/usr/bin/env bash
# Run the identity suite at BASE_REF and at this checkout, and compare them:
#
#     scripts/identity_diff.sh BASE_REF OUTDIR
#
# BASE_REF is unpacked with `git archive` into OUTDIR/base-tree, and this
# checkout's scripts/*.sh are copied over its own, so both trees run the same
# suite (scripts/identity_suite.sh) over their own src/, into OUTDIR/base and
# OUTDIR/head.  `diff -r` must find the two identical.  Then this checkout
# must read every model the base wrote as the base did, and a new location
# that sorts before the others must leave its outputs unchanged.  Exits
# non-zero on the first difference or failure.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 BASE_REF OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir "$2"
out=$(cd "$2" && pwd)

mkdir -p "$out/base-tree/scripts"
git -C "$root" archive "$1" | tar -x -C "$out/base-tree"
cp "$root"/scripts/*.sh "$out/base-tree/scripts/"
"$out/base-tree/scripts/identity_suite.sh" "$out/base"
"$root/scripts/identity_suite.sh" "$out/head"
diff -r "$out/base" "$out/head"

drtopt() {  # drtopt DIR ARGS...: this checkout's drtopt ARGS run in DIR, its stdout dropped
    (cd "$1" && PYTHONPATH="$root/src" python3 -m drtopt.cli "${@:2}") >/dev/null
}

# this checkout loads every model.json the base wrote, reads it as the base did, and saves the
# loaded model as the same bytes
mkdir "$out/reread"
for v in linear gboost seasonal hp; do
    demo=$out/base/$v/demo
    cp -r "$demo" "$out/reread/$v"
    rm "$out/reread/$v/out/forecasts.csv"
    drtopt "$out/reread/$v" predict --config config.json --model out/model.json
    cmp "$demo/out/forecasts.csv" "$out/reread/$v/out/forecasts.csv"
    PYTHONPATH="$root/src" python3 -c \
        'import sys; from drtopt import forecasting as f; f.save_model(f.load_model(sys.argv[1]), sys.argv[2])' \
        "$demo/out/model.json" "$out/reread/$v/resaved.json"
    cmp "$demo/out/model.json" "$out/reread/$v/resaved.json"
done

# a location sorting before every other shifts the counts' location ids, and the model's and the
# network's pairs are matched to the counts by label
cp -r "$out/head/seasonal/demo" "$out/shifted"
printf '%s\n' "2017-11-17T08,a-new,g0,1" "2017-11-17T09,a-new,g0,2" >>"$out/shifted/counts.csv"
for command in predict evaluate "optimize --dump-samples" pipeline; do
    drtopt "$out/shifted" $command --config config.json --model out/model.json
done
diff -r "$out/head/seasonal/demo/out" "$out/shifted/out"
