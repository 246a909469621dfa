#!/bin/sh
# Non-test lines per crate: for each `.rs` file, the lines before its
# `#[cfg(test)] mod tests` block, or the whole file when it has none. A
# file declared only as `#[cfg(test)] mod x;` is test code and counts 0.
#
#   scripts/nontest-lines.sh [dir ...]
#
# Run from the repository root. With no argument it walks every
# `crates/*/src` and `src`, and prints one `<lines> <dir>` line per
# directory, then the total.
set -eu

[ $# -gt 0 ] || set -- crates/*/src src
# The files `#[cfg(test)] mod x;` declares: `x.rs` beside a `lib.rs`,
# `main.rs` or `mod.rs`, else in the directory named after the declaring
# file.
test_files=$(find "$@" -name '*.rs' -exec awk '
    prev ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/ && match($0, /^[ \t]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/) {
        name = $0; sub(/^[ \t]*(pub(\([a-z]+\))? )?mod /, "", name); sub(/;.*/, "", name)
        dir = FILENAME; sub(/\.rs$/, "", dir)
        if (FILENAME ~ /(^|\/)(lib|main|mod)\.rs$/) { dir = FILENAME; sub(/\/[^\/]*$/, "", dir) }
        print dir "/" name ".rs"
    }
    { prev = $0 }
' {} +)

total=0
for dir in "$@"; do
    n=$(find "$dir" -name '*.rs' | grep -vxF "${test_files:-/nonexistent}" | xargs -r awk '
        FNR == 1 { if (NR > 1 && !found) s += last; found = 0; prev = "" }
        !found && prev ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/ && /^[ \t]*(pub(\([a-z]+\))? )?mod tests[ \t]*\{/ {
            s += FNR - 2; found = 1
        }
        { prev = $0; last = FNR }
        END { if (NR > 0 && !found) s += last; print s + 0 }
    ' | awk '{ t += $1 } END { print t + 0 }')
    echo "$n $dir"
    total=$((total + n))
done
echo "$total total"
