#!/bin/sh
# Golden runs: byte identity of the CLI's output across a refactor.
#
#   tests/golden.sh check [binary]   run every command below, compare the
#                                    cksum of each stdout JSON and --trace
#                                    JSONL with tests/golden.cksum
#   tests/golden.sh bless [binary]   rewrite tests/golden.cksum
#   tests/golden.sh diff OLD [NEW]   run every command with both binaries
#                                    (NEW defaults to this tree's build)
#                                    and print a diff of each output that
#                                    differs: which fields a re-bless moves
#
# Together the runs cover change assimilation (remove and add), churn +
# storms (one escalated to a verification pass), warm start (intact,
# scoped re-discovery around mismatches, cold fallback), election/merge,
# every injected fault kind, data packets under offered load,
# claim-partitioned discovery under each of the three algorithms, and
# every quick sweep grid's report. A PR that declares an output change
# re-blesses and says why; any other PR must pass `check` untouched.
set -eu
export LC_ALL=C

mode=${1:-check}
root=$(cd "$(dirname "$0")/.." && pwd)
built=$root/target/release/asi-fabric-sim
sums=$root/tests/golden.cksum
case $mode in
diff)
    if [ $# -lt 2 ]; then
        echo "usage: tests/golden.sh diff OLD_BIN [NEW_BIN]" >&2
        exit 2
    fi
    old=$2
    bin=${3:-$built}
    case $old in /*) ;; *) old=$PWD/$old ;; esac
    ;;
*) bin=${2:-$built} ;;
esac
case $bin in /*) ;; *) bin=$PWD/$bin ;; esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"

# run NAME ARGS...: stdout JSON to NAME.json, trace to NAME.jsonl.
run() {
    name=$1
    shift
    if ! "$bin" "$@" --json --trace "$name.jsonl" >"$name.json" 2>"$name.err"; then
        cat "$name.err" >&2
        echo "golden: run '$name' failed" >&2
        exit 1
    fi
    rm -f "$name.err"
}

# sweep NAME ARGS...: a sweep report, stdout only (its cells run untraced).
sweep() {
    name=$1
    shift
    if ! "$bin" sweep "$@" >"$name" 2>"$name.err"; then
        cat "$name.err" >&2
        echo "golden: run '$name' failed" >&2
        exit 1
    fi
    rm -f "$name.err"
}

# Wall-clock fields are the only bytes of a stress report that may differ.
stress() {
    run "$@"
    grep -vE '"(wall_time_s|events_per_sec|peak_rss_mb)"' "$1.json" >"$1.tmp"
    mv "$1.tmp" "$1.json"
}

# Every golden command, its outputs in the current directory.
golden() {
    run change --topology mesh:4x4 --change remove
    run change_add --topology mesh:4x4 --change add
    run churn churn --topology mesh:3x3
    run storm churn --topology mesh:3x3 --device-rate 3000
    run save snapshot save --topology mesh:4x4 --out m.snap
    run verify snapshot verify --topology mesh:4x4 --in m.snap
    run verify_scoped snapshot verify --topology mesh:4x3 --in m.snap
    run verify_fallback snapshot verify --topology mesh:3x3 --in m.snap
    stress stress stress --topology mesh:16x16 --fms 3
    run faults --topology mesh:4x4 --algorithm parallel --loss 0.03 \
        --loss-model bursty --corrupt 0.02 --duplicate 0.02 --retries 8 \
        --flap 300:2:1:200 --hang 200:5:400 --slow 100:7:3:500
    run traffic traffic --topology mesh:4x4 --load 0.3
    for alg in serial-packet serial-device parallel; do
        stress "fms2_$alg" stress --topology mesh:8x8 --fms 2 --algorithm "$alg"
    done
    for grid in smoke fig5 fig6 faults warmstart scale churn load; do
        sweep "sweep_$grid.json" --grid "$grid" --quick --json
    done
    for grid in scale load; do
        sweep "sweep_$grid.csv" --grid "$grid" --quick --csv
    done
}

if [ "$mode" = diff ]; then
    mkdir old new
    (cd old && bin=$old && golden)
    (cd new && golden)
    differ=0
    for f in $(cd new && ls -- *.json *.jsonl *.csv); do
        if ! cmp -s "old/$f" "new/$f"; then
            echo "=== $f"
            diff "old/$f" "new/$f" || true
            differ=$((differ + 1))
        fi
    done
    echo "golden: $differ of $(cd new && ls -- *.json *.jsonl *.csv | wc -l) outputs differ"
    exit 0
fi

golden
cksum -- *.json *.jsonl *.csv >actual
case $mode in
bless)
    cp actual "$sums"
    echo "golden: blessed $(wc -l <actual) digests into tests/golden.cksum"
    ;;
check)
    if ! diff "$sums" actual; then
        echo "golden: output differs from tests/golden.cksum (see above)" >&2
        exit 1
    fi
    echo "golden: $(wc -l <actual) digests match"
    ;;
*)
    echo "usage: tests/golden.sh check|bless [binary] | diff OLD_BIN [NEW_BIN]" >&2
    exit 2
    ;;
esac
