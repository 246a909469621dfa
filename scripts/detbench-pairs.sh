#!/bin/sh
# Alternating parent/change pairs of one `detbench` workload: the table a
# CHANGES.md entry reports.
#
#   scripts/detbench-pairs.sh <parent-rev> <workload> [pairs=10] [seconds=8]
#
# Run from the repository root. The parent side is `git archive <parent-rev>`
# unpacked beside the runs, the change side is this checkout as it stands
# (uncommitted edits included). Each side's `benchmark/` is built once, into
# a target directory of its own, and each binary runs from its own root (it
# reads `./BENCHMARK.json`). Pair i runs both sides on seed i; odd pairs run
# the parent first, even pairs the change. Every run's final JSON line is
# kept, and per end-to-end metric of BENCHMARK.json the two medians, the
# quartiles and the change's win count are printed.
#
# Everything is written under ${TMPDIR:-/tmp}/detbench-pairs and reused by
# the next call (the builds are then no-ops); nothing in the checkout moves.
set -eu

[ $# -ge 2 ] || { sed -n '2,17p' "$0" >&2; exit 2; }
rev=$(git rev-parse --verify --short=12 "$1^{commit}")
workload=$2
pairs=${3:-10}
seconds=${4:-8}
root=$(pwd)
[ -f "$root/BENCHMARK.json" ] || { echo "run from the repository root" >&2; exit 2; }

work=${TMPDIR:-/tmp}/detbench-pairs
parent=$work/parent-$rev
runs=$work/runs/$workload
mkdir -p "$runs"
if [ ! -d "$parent" ]; then
    mkdir -p "$parent.tmp"
    git archive "$rev" | tar -x -C "$parent.tmp"
    mv "$parent.tmp" "$parent"
fi

# build <side> <root>: the side's detbench, copied out of its target dir.
build() {
    cargo build --release --offline --quiet \
        --manifest-path "$2/benchmark/Cargo.toml" --target-dir "$work/target-$1"
    cp "$work/target-$1/release/detbench" "$work/detbench-$1"
}
build "parent-$rev" "$parent"
build change "$root"

# run <side> <root> <binary> <seed>: keep the run's final JSON line.
run() {
    out=$runs/$1.$4.json
    (cd "$2" && "$3" run --workload "$workload" --seed "$4" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) >"$out"
    grep -q '"metrics"' "$out" || { echo "$1 seed $4: no result, see $out" >&2; exit 1; }
}

rm -f "$runs"/parent.*.json "$runs"/change.*.json
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$work/detbench-parent-$rev" "$i"
        run change "$root" "$work/detbench-change" "$i"
    else
        run change "$root" "$work/detbench-change" "$i"
        run parent "$parent" "$work/detbench-parent-$rev" "$i"
    fi
    echo "pair $i/$pairs done" >&2
    i=$((i + 1))
done

echo "$workload: $pairs pairs, parent $rev vs change, $seconds s, seeds 1..$pairs ($runs)"
awk -v runs="$runs" -v pairs="$pairs" '
# The end-to-end metrics: one `{"name": ..., "better": ...}` per line.
/"end_to_end"/ { inside = 1; next }
inside && /^ *\]/ { inside = 0 }
inside && match($0, /"name": "[^"]+"/) {
    n += 1
    name[n] = substr($0, RSTART + 9, RLENGTH - 10)
    higher[n] = ($0 ~ /"better": "higher"/)
}
function field(line, key) {
    if (!match(line, "\"" key "\": *[{]?(\"value\": *)?[^,}]+")) return "?"
    line = substr(line, RSTART, RLENGTH)
    sub(/.*: */, "", line)
    return line
}
# Quantile q of v[1..k] (sorted in place), linear interpolation.
function quantile(v, k, q,    i, j, t, pos, lo) {
    for (i = 2; i <= k; i++)
        for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    pos = 1 + (k - 1) * q
    lo = int(pos)
    return lo >= k ? v[k] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function spread(v, k) {
    return sprintf("%.6g (%.6g-%.6g)", quantile(v, k, 0.5), quantile(v, k, 0.25), quantile(v, k, 0.75))
}
END {
    for (s = 1; s <= 2; s++) {
        side = s == 1 ? "parent" : "change"
        for (i = 1; i <= pairs; i++) {
            file = runs "/" side "." i ".json"
            getline line < file
            close(file)
            for (m = 1; m <= n; m++) val[side, m, i] = field(line, name[m])
            failed[side] += field(line, "failed")
            attempted[side] += field(line, "attempted")
            if (field(line, "correct") != "true") wrong[side] += 1
        }
    }
    printf "%-26s %32s %32s  %s\n", "metric", "parent median (q1-q3)", "change median (q1-q3)", "change better / same / worse"
    for (m = 1; m <= n; m++) {
        win = same = 0
        for (i = 1; i <= pairs; i++) {
            p[i] = val["parent", m, i]; c[i] = val["change", m, i]
            if (p[i] == c[i]) same += 1
            else if (higher[m] ? c[i] + 0 > p[i] + 0 : c[i] + 0 < p[i] + 0) win += 1
        }
        printf "%-26s %32s %32s  %d / %d / %d\n", name[m], spread(p, pairs), spread(c, pairs),
            win, same, pairs - win - same
    }
    printf "failed / attempted: parent %d / %d, change %d / %d; incorrect runs: parent %d, change %d\n",
        failed["parent"], attempted["parent"], failed["change"], attempted["change"],
        wrong["parent"], wrong["change"]
}' "$root/BENCHMARK.json"
