#!/bin/sh
# Churn ledger: the seeds on which `churn` is known not to converge.
#
#   tests/churn_ledger.sh [binary]
#
# Runs every row's seed range and fails unless the seeds that exit 1
# (the run did not end converged) are exactly the row's ledger. A seed
# that fails and is not listed is a regression; a listed seed that now
# passes means the change fixed it, and must update the ledger here and
# in ROADMAP.md item 1. Any exit status other than 0 or 1 (a panic, a
# rejected command line) fails the ledger outright.
set -u
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
bin=${1:-$root/target/release/asi-fabric-sim}
status=0

# row "FAILING SEEDS" LAST ARGS...: churn ARGS over seeds 1..=LAST.
row() {
    want=$1
    last=$2
    shift 2
    got=
    seed=1
    while [ "$seed" -le "$last" ]; do
        "$bin" churn "$@" --seed "$seed" >/dev/null 2>&1
        rc=$?
        case $rc in
            0) ;;
            1) got="$got $seed" ;;
            *)
                echo "churn ledger: churn $* --seed $seed exited $rc" >&2
                status=1
                ;;
        esac
        seed=$((seed + 1))
    done
    got=${got# }
    if [ "$got" != "$want" ]; then
        echo "churn ledger: churn $* over seeds 1-$last fails on [$got], ledger says [$want]" >&2
        status=1
    fi
}

row "33 37" 60 --topology mesh:4x4
row "41" 60 --topology torus:4x4
row "19 33" 40 --topology mesh:6x6 --start-us 40000
row "21 26 33" 40 --topology mesh:8x8 --start-us 40000
row "" 60 --topology fattree:4,2

[ "$status" -eq 0 ] && echo "churn ledger: every row matches"
exit "$status"
