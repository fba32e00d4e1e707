#!/bin/sh
# Public functions nothing calls.
#
#   tests/unused_pub.sh    list every `pub fn` under crates/*/src or src/
#                          whose name occurs nowhere in crates, src, tests,
#                          examples or benchmark/src but at its definition;
#                          exit 1 if there is one
#
# A name counts wherever it appears as a whole word, comments and other
# functions of the same name included, so the check misses some unused
# functions but never flags a used one.
set -eu
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

grep -rhoE --include='*.rs' 'pub fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src src |
    sed 's/^pub fn //' | sort -u >"$tmp/defined"
grep -rhoE --include='*.rs' '[A-Za-z_][A-Za-z0-9_]*' crates src tests examples benchmark/src |
    sort | uniq -c | awk '$1 == 1 { print $2 }' >"$tmp/once"
comm -12 "$tmp/defined" "$tmp/once" >"$tmp/unused"

if [ -s "$tmp/unused" ]; then
    while read -r name; do
        grep -rnE --include='*.rs' "pub fn $name\\b" crates/*/src src
    done <"$tmp/unused"
    echo "unused_pub: $(wc -l <"$tmp/unused") public functions have no caller (above)" >&2
    exit 1
fi
echo "unused_pub: every public function has a caller"
