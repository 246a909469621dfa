#!/bin/sh
# Non-test lines per crate: for each `.rs` file, the lines before its
# `#[cfg(test)] mod tests` block, or the whole file when it has none.
#
#   scripts/nontest-lines.sh [dir ...]
#
# Run from the repository root. With no argument it walks every
# `crates/*/src` and `src`, and prints one `<lines> <dir>` line per
# directory, then the total.
set -eu

[ $# -gt 0 ] || set -- crates/*/src src
total=0
for dir in "$@"; do
    n=$(find "$dir" -name '*.rs' -exec awk '
        FNR == 1 { if (NR > 1 && !found) s += last; found = 0; prev = "" }
        !found && prev ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/ && /^[ \t]*(pub(\([a-z]+\))? )?mod tests[ \t]*\{/ {
            s += FNR - 2; found = 1
        }
        { prev = $0; last = FNR }
        END { if (NR > 0 && !found) s += last; print s + 0 }
    ' {} + | awk '{ t += $1 } END { print t + 0 }')
    echo "$n $dir"
    total=$((total + n))
done
echo "$total total"
