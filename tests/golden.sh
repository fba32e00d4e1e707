#!/bin/sh
# Golden runs: byte identity of the CLI's output across a refactor.
#
#   tests/golden.sh check [binary]   run every command below, compare the
#                                    cksum of each stdout JSON and --trace
#                                    JSONL with tests/golden.cksum
#   tests/golden.sh bless [binary]   rewrite tests/golden.cksum
#
# Together the runs cover change assimilation (remove and add), churn +
# storms, warm start, election/merge, every injected fault kind, data
# packets with multicast replication, and claim-partitioned discovery
# under each of the three algorithms. A PR that declares an output change
# re-blesses and says why; any other PR must pass `check` untouched.
set -eu
export LC_ALL=C

mode=${1:-check}
root=$(cd "$(dirname "$0")/.." && pwd)
bin=${2:-$root/target/release/asi-fabric-sim}
sums=$root/tests/golden.cksum
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

# Wall-clock fields are the only bytes of a stress report that may differ.
stress() {
    run "$@"
    grep -vE '"(wall_time_s|events_per_sec|peak_rss_mb)"' "$1.json" >"$1.tmp"
    mv "$1.tmp" "$1.json"
}

run change --topology mesh:4x4 --change remove
run change_add --topology mesh:4x4 --change add
run churn churn --topology mesh:3x3
run save snapshot save --topology mesh:4x4 --out m.snap
run verify snapshot verify --topology mesh:4x4 --in m.snap
stress stress stress --topology mesh:16x16 --fms 3
run faults faults --topology mesh:4x4 --algorithm parallel --loss 0.03 \
    --loss-model bursty --corrupt 0.02 --duplicate 0.02 --retries 8 \
    --flap 300:2:1:200 --hang 200:5:400 --slow 100:7:3:500
run traffic traffic --topology mesh:4x4 --load 0.3 --mcast-groups 2 --mcast-load 0.05
for alg in serial-packet serial-device parallel; do
    stress "fms2_$alg" stress --topology mesh:8x8 --fms 2 --algorithm "$alg"
done

cksum -- *.json *.jsonl >actual
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
    echo "usage: tests/golden.sh check|bless [binary]" >&2
    exit 2
    ;;
esac
