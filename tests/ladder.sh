#!/bin/sh
# Counts ledger: the deterministic work of the benchmark's ladder,
# committed and compared exactly.
#
#   tests/ladder.sh check    run the ladder once and compare its counts
#                            with tests/ladder.counts; exit 1 on any
#                            difference
#   tests/ladder.sh bless    run it and rewrite tests/ladder.counts
#
# One traced run of every workload (`run --traced --reps 1 --seed 0xA51`,
# about 30 s). Every metric in `count`, `B` or `sim_us` goes to the file
# as one `workload metric value` line, sorted, under a header that names
# the compiler (`rustc -V`). Wall times, rates and shares are not in it:
# they move from run to run, these do not.
#
# Allocation counts (`host.*`) depend on how the standard library grows
# its collections, so they are compared only under the compiler that
# blessed the file; under another one `check` compares the simulated
# counts alone and prints the `host.*` deltas. A change that moves a line
# re-blesses and declares each moved line.
set -eu
export LC_ALL=C

mode=${1:-check}
root=$(cd "$(dirname "$0")/.." && pwd)
ledger=$root/tests/ladder.counts

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

(cd "$root" && cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --traced --reps 1 --seed 0xA51 --out "$tmp/run.json") >"$tmp/run.log" 2>&1 || {
    cat "$tmp/run.log" >&2
    echo "ladder: the benchmark run failed" >&2
    exit 1
}

{
    echo "# $(rustc -V)"
    python3 - "$tmp/run.json" <<'PY'
import json, sys
run = json.load(open(sys.argv[1]))
lines = []
for w in run["workloads"]:
    if w["failed"]:
        sys.exit(f"ladder: {w['name']}: {w['failed']} failed operations")
    for m in w["metrics"]:
        if m["unit"] in ("count", "B", "sim_us"):
            lines.append(f"{w['name']} {m['name']} {m['samples'][0]}")
print("\n".join(sorted(lines)))
PY
} >"$tmp/actual"

# The lines `check` compares: all of them under the blessing compiler.
compared() {
    if [ "$same" = yes ]; then cat; else grep -v '^[^ ]* host\.' || true; fi
}

case $mode in
bless)
    cp "$tmp/actual" "$ledger"
    echo "ladder: blessed $(($(wc -l <"$ledger") - 1)) lines"
    ;;
check)
    same=yes
    if [ "$(head -n 1 "$ledger")" != "$(head -n 1 "$tmp/actual")" ]; then
        same=no
        echo "ladder: blessed under '$(head -n 1 "$ledger" | cut -c3-)', run under" \
            "'$(head -n 1 "$tmp/actual" | cut -c3-)': host.* lines are not compared" >&2
        diff "$ledger" "$tmp/actual" | grep '^[<>] [^ ]* host\.' >&2 || true
    fi
    tail -n +2 "$ledger" | compared >"$tmp/want"
    tail -n +2 "$tmp/actual" | compared >"$tmp/got"
    if ! diff "$tmp/want" "$tmp/got"; then
        echo "ladder: counts differ from tests/ladder.counts ('<' blessed, '>' now)" >&2
        exit 1
    fi
    echo "ladder: $(wc -l <"$tmp/got") lines match"
    ;;
*)
    echo "usage: $0 check|bless" >&2
    exit 2
    ;;
esac
