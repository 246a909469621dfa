#!/bin/sh
# Alternating parent/change pairs of one `detbench` workload: the table a
# CHANGES.md entry reports.
#
#   scripts/detbench-pairs.sh <parent-rev> <workload> [pairs=10] [seconds=8]
#
# Run from the repository root. The parent side is `git archive <parent-rev>`
# unpacked beside the runs, the change side a copy of this checkout as it
# stands (`git ls-files -co --exclude-standard`: uncommitted edits included)
# in a sibling directory with a name of the same length. The two sides'
# `benchmark/` build in turn from one source directory into one target
# directory, each binary copied out: paths are compiled into the binaries,
# so the two differ only by source (built from two directories, identical
# sources gave a ≈ 10 % throughput gap). Each source is unpacked there with
# fresh file times, so every crate rebuilds whichever side built last.
# Each binary runs from its own side's root (it reads `./BENCHMARK.json`).
# Pair i runs both sides on seed i; odd pairs run the parent first, even
# pairs the change. Every run's final JSON line and its `#detail` line are kept. Per
# end-to-end metric of BENCHMARK.json the two medians, the quartiles and
# the change's win count are printed; below them, labelled ungated, the
# same for the stream metrics of the detail lines (`run.updates_per_s`,
# `run.apply_p50_us`, `run.apply_p99_us`, `run.cpu_us_per_update`).
#
# Everything is written under ${TMPDIR:-/tmp}/detbench-pairs; the parent's
# unpacked tree is reused by the next call. Nothing in the checkout moves.
set -eu

[ $# -ge 2 ] || { sed -n '2,25p' "$0" >&2; exit 2; }
rev=$(git rev-parse --verify --short=12 "$1^{commit}")
workload=$2
pairs=${3:-10}
seconds=${4:-8}
root=$(pwd)
[ -f "$root/BENCHMARK.json" ] || { echo "run from the repository root" >&2; exit 2; }

work=${TMPDIR:-/tmp}/detbench-pairs
parent=$work/parent-$rev
change=$work/change-$rev
runs=$work/runs/$workload
mkdir -p "$runs"
if [ ! -d "$parent" ]; then
    mkdir -p "$parent.tmp"
    git archive "$rev" | tar -x -C "$parent.tmp"
    mv "$parent.tmp" "$parent"
fi
rm -rf "$change"
mkdir -p "$change"
git ls-files -z -co --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - | tar -x -C "$change"

# build <side> <root>: the side's detbench, built from the one source
# directory into the one target directory and copied out.
build() {
    rm -rf "$work/src"
    mkdir -p "$work/src"
    (cd "$2" && tar -cf - .) | tar -x -m -C "$work/src"
    cargo build --release --offline --quiet \
        --manifest-path "$work/src/benchmark/Cargo.toml" --target-dir "$work/target"
    cp "$work/target/release/detbench" "$work/detbench-$1"
}
build "parent-$rev" "$parent"
build "change-$rev" "$change"

# run <side> <root> <binary> <seed>: keep the run's final JSON line, and
# its `#detail` line beside it.
run() {
    out=$runs/$1.$4
    (cd "$2" && "$3" run --workload "$workload" --seed "$4" \
        --seconds "$seconds" --trace 0 2>/dev/null) >"$out.log"
    tail -n 1 "$out.log" >"$out.json"
    sed -n 's/^#detail //p' "$out.log" >"$out.detail.json"
    rm -f "$out.log"
    grep -q '"metrics"' "$out.json" || { echo "$1 seed $4: no result, see $out.json" >&2; exit 1; }
}

rm -f "$runs"/parent.*.json "$runs"/change.*.json
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$parent" "$work/detbench-parent-$rev" "$i"
        run change "$change" "$work/detbench-change-$rev" "$i"
    else
        run change "$change" "$work/detbench-change-$rev" "$i"
        run parent "$parent" "$work/detbench-parent-$rev" "$i"
    fi
    echo "pair $i/$pairs done" >&2
    i=$((i + 1))
done

echo "$workload: $pairs pairs, parent $rev vs change, $seconds s, seeds 1..$pairs ($runs)"
awk -v runs="$runs" -v pairs="$pairs" '
BEGIN { k = split("run.updates_per_s run.apply_p50_us run.apply_p99_us run.cpu_us_per_update", sname, " ") }
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
function line_of(file,    line) {
    line = ""
    getline line < file
    close(file)
    return line
}
# One row over p[1..pairs] and c[1..pairs]: both medians with quartiles and
# the change'"'"'s better / same / worse count.
function row(label, hi,    i, win, same) {
    win = same = 0
    for (i = 1; i <= pairs; i++) {
        if (p[i] == c[i]) same += 1
        else if (hi ? c[i] + 0 > p[i] + 0 : c[i] + 0 < p[i] + 0) win += 1
    }
    printf "%-26s %32s %32s  %d / %d / %d\n", label, spread(p, pairs), spread(c, pairs),
        win, same, pairs - win - same
}
END {
    for (s = 1; s <= 2; s++) {
        side = s == 1 ? "parent" : "change"
        for (i = 1; i <= pairs; i++) {
            line = line_of(runs "/" side "." i ".json")
            for (m = 1; m <= n; m++) val[side, m, i] = field(line, name[m])
            failed[side] += field(line, "failed")
            attempted[side] += field(line, "attempted")
            if (field(line, "correct") != "true") wrong[side] += 1
            line = line_of(runs "/" side "." i ".detail.json")
            for (m = 1; m <= k; m++) sval[side, m, i] = field(line, sname[m])
        }
    }
    printf "%-26s %32s %32s  %s\n", "metric", "parent median (q1-q3)", "change median (q1-q3)", "change better / same / worse"
    for (m = 1; m <= n; m++) {
        for (i = 1; i <= pairs; i++) { p[i] = val["parent", m, i]; c[i] = val["change", m, i] }
        row(name[m], higher[m])
    }
    print "ungated, the stream (each run'"'"'s #detail line):"
    for (m = 1; m <= k; m++) {
        for (i = 1; i <= pairs; i++) { p[i] = sval["parent", m, i]; c[i] = sval["change", m, i] }
        row(sname[m], m == 1)
    }
    printf "failed / attempted: parent %d / %d, change %d / %d; incorrect runs: parent %d, change %d\n",
        failed["parent"], attempted["parent"], failed["change"], attempted["change"],
        wrong["parent"], wrong["change"]
}' "$root/BENCHMARK.json"
