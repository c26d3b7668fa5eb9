#!/usr/bin/env bash
# Run `drtopt train` on malformed counts CSVs and keep each exit code and stderr:
#
#     scripts/malformed_counts.sh OUTDIR
#
# One case per check of the counts loader (field count, timestamp, self-loop,
# integer count, sign, int64 range), plus a day that is not in its month, a
# duplicate (pair, hour), a file whose first malformed record fails several
# checks and is followed by others, and a file with the header and no record.
# Each case is written twice: OUTDIR/<case>/counts.csv with LF line ends, and
# OUTDIR/<case>-crlf/counts.csv with CRLF ones, as `save_od_counts` writes.
# A minimal config.json sits beside each; train runs in that directory, with
# drtopt imported from the src/ of the checkout this script sits in, and
# leaves exit and stderr there.  The program sees only relative paths, so two
# checkouts whose error texts have not changed leave trees that `diff -r`
# finds identical.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTDIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)

header="timestamp,origin,destination,count"
good="2017-11-17T08,g0,g1,5"
train_in() {
    local dir=$1
    printf '{"seed": 7, "data": {"counts_csv": "counts.csv"}}\n' >"$dir/config.json"
    local status=0
    (cd "$dir" && PYTHONPATH="$root/src" python3 -c \
        'import sys; from drtopt.cli import main; sys.exit(main(sys.argv[1:]))' train --config config.json) \
        >/dev/null 2>"$dir/stderr" || status=$?
    echo "$status" >"$dir/exit"
}
case_csv() {
    local name=$1
    shift
    mkdir -p "$out/$name" "$out/$name-crlf"
    printf '%s\n' "$header" "$@" >"$out/$name/counts.csv"
    printf '%s\r\n' "$header" "$@" >"$out/$name-crlf/counts.csv"
    train_in "$out/$name"
    train_in "$out/$name-crlf"
}

case_csv fields "$good" "2017-11-17T09,g0,g1"
case_csv minute "$good" "2017-11-17T09:30,g0,g1,3"
case_csv not-an-hour "$good" "2017-11-17T24,g0,g1,3"
case_csv bad-date "$good" "2017-02-30T09,g0,g1,3"
case_csv self-loop "$good" "2017-11-17T09,g1,g1,3"
case_csv non-integer "$good" "2017-11-17T09,g0,g1,5.0"
case_csv negative "$good" "2017-11-17T09,g0,g1,-3"
case_csv int64 "$good" "2017-11-17T09,g0,g1,9223372036854775808"
case_csv duplicate "$good" "2017-11-17T09,g1,g0,1" "2017-11-17T09,g1,g0,2" "2017-11-17T08,g0,g1,6"
case_csv first-of-many "$good" "" "NaT,g2,g2,x" "2017-11-17T09,g0" "2017-11-17T10,g0,g1,-1"
case_csv header-only
