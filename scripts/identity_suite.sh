#!/usr/bin/env bash
# Run every CLI variant whose outputs must stay byte-identical into OUTDIR:
#
#     scripts/identity_suite.sh OUTDIR
#
# drtopt is imported from the src/ of the checkout this script sits in.  Each
# variant writes to OUTDIR/<variant>, with each command's stdout and stderr in
# its logs/, and checks that it ran what it is named for.  The program sees
# only relative paths, so two checkouts whose outputs have not changed leave
# trees that `diff -r` finds identical; scripts/identity_diff.sh compares two.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir "$1"
out=$(cd "$1" && pwd)
trap 'echo "$0: line $LINENO failed; its logs are under $out" >&2' ERR

drtopt() {  # drtopt DIR LOG ARGS...: drtopt ARGS run in DIR, stdout and stderr to LOG.stdout and LOG.stderr
    local dir=$1 log=$2
    shift 2
    (cd "$dir" && PYTHONPATH="$root/src" python3 -m drtopt.cli "$@") >"$log.stdout" 2>"$log.stderr" \
        || { echo "drtopt $* failed; see $log.stderr" >&2; return 1; }
}
expect() {  # expect FILE PATTERN WHAT: stop unless FILE holds PATTERN
    grep -q "$2" "$1" || { echo "$1: $3" >&2; exit 1; }
}
variant() {  # variant NAME FROM EDIT [FILE]: FROM's demo as NAME's, its FILE (config.json) as d after the Python EDIT
    mkdir -p "$out/$1/logs"
    cp -r "$out/$2/demo" "$out/$1/demo"
    python3 -c 'import json, sys; d = json.load(open(sys.argv[1])); exec(sys.argv[2]); json.dump(d, open(sys.argv[1], "w"), indent=2, sort_keys=True)' \
        "$out/$1/demo/${4:-config.json}" "$3"
}

"$root/scripts/demo_chain.sh" "$out/linear"
"$root/scripts/demo_chain.sh" "$out/gboost" gboost
expect "$out/gboost/demo/out/model.json" '"family": "gboost"' "the demo did not train a gboost model"
"$root/scripts/demo_chain.sh" "$out/seasonal" linear seasonal
# continuous lags: the histograms hold more bins than a small node has (feature, row)s, so most
# nodes run the float scan unscreened
"$root/scripts/demo_chain.sh" "$out/gboost-seasonal" gboost seasonal
for v in seasonal gboost-seasonal; do
    expect "$out/$v/demo/out/model.json" '"seasonal_normalize": true' "the demo did not train a seasonally normalized model"
done
"$root/scripts/demo_chain.sh" "$out/hp" hp
expect "$out/hp/demo/out/model.json" '"family": "hp"' "the demo did not train a historical-percentile model"

# the grid search fits every pair at each point with early stopping on the tuning-validation rows,
# so the levels stop at different stages; its scores reach the log
variant gboost-grid gboost 'd["model"]["gboost_grid"] = [{"learning_rate": 0.5, "max_depth": 3, "n_trees": 40}, {"learning_rate": 0.3, "max_depth": 2, "n_trees": 30}]'
rm -rf "$out/gboost-grid/demo/out"
drtopt "$out/gboost-grid/demo" "$out/gboost-grid/logs/train" train --config config.json
expect "$out/gboost-grid/logs/train.stderr" 'grid search over 2 points' "the train did not search the grid"

mkdir -p "$out/synth/logs"
for run in "two --locations 2" "five-flat --locations 5 --flat-profile" "six-seed-3 --locations 6 --seed 3"; do
    set -- $run
    drtopt "$out/synth" "$out/synth/logs/$1" synth --out-dir "$@"
done

# the demo's capacity 40 never binds: at capacity 6 the flow assignments' objectives reach the
# samples and scenario files at full precision; at capacity 10 with three buses and up to three
# routes, route sets of size 3 are priced under binding capacity
for run in "capacity6 d['capacity'] = 6.0" "capacity10-nu3 d.update(fleet_size=3, max_routes=3, capacity=10.0)"; do
    v=${run%% *}
    variant "$v" linear "${run#* }" network.json
    rm -f "$out/$v"/demo/out/{scenario_,samples_,comparison.}*
    drtopt "$out/$v/demo" "$out/$v/logs/optimize" optimize --dump-samples --config config.json --model out/model.json
    drtopt "$out/$v/demo" "$out/$v/logs/pipeline" pipeline --config config.json --model out/model.json
done
expect "$out/capacity10-nu3/demo/network.json" '"max_routes": 3' "the variant did not allow three routes"

# one fit over every pair's rows: the boosted trees' largest nodes, where the split search's
# screening window is widest, and the demo's largest quantile LP (7,776 x 60); pooled and seasonally
# normalized, the one fit whose levels grow in several groups of histograms (one level each), with
# many of its nodes unscreened
for run in "gboost-pooled gboost" "linear-pooled linear" "gboost-pooled-seasonal gboost-seasonal"; do
    set -- $run
    variant "$1" "$2" 'd["model"]["scope"] = "pooled"'
    rm -rf "$out/$1/demo/out"
    drtopt "$out/$1/demo" "$out/$1/logs/train" train --config config.json
    expect "$out/$1/demo/out/model.json" '"scope": "pooled"' "the demo did not train a pooled model"
    drtopt "$out/$1/demo" "$out/$1/logs/predict" predict --config config.json --model out/model.json
done
expect "$out/gboost-pooled-seasonal/demo/out/model.json" '"seasonal_normalize": true' "the demo did not train a seasonally normalized model"

# the checkout's own script; its stdout is not kept, as it prints wall times
(cd "$out" && PYTHONPATH="$root/src" python3 "$root/scripts/run_case_study.py" --quick --seed 7 --out-dir case >/dev/null)

"$root/scripts/malformed_counts.sh" "$out/malformed"
