#!/bin/sh
# Public items nothing outside their crate names: for each crate, the
# `pub` fn / struct / enum / trait / type / const / static / mod declared
# in its `src` (before each file's `#[cfg(test)] mod tests` block) whose
# name appears in no other crate's `src`, the root `src/`, `tests/`,
# `examples/`, `benchmark/src` or a crate's own `tests/`, nor in a doc
# test (a fenced block of `///` or `//!` lines) anywhere.
#
#   scripts/public-items.sh
#
# Run from the repository root. Prints one `<file>:<line> <kind> <name>`
# line per such item, a `<count> <dir>` line per crate, then the total.
# A name counts as used when any of those files holds it as a whole word,
# so the count is a floor: two items sharing a name hide each other.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

dirs="$(ls -d crates/*/src 2>/dev/null) src"
corpus_dirs="$dirs tests examples benchmark/src $(ls -d crates/*/tests 2>/dev/null || true)"

# Whole words of every doc test in the tree.
find $dirs -name '*.rs' -exec awk '
    FNR == 1 { fence = 0 }
    /^[ \t]*\/\/[\/!][ \t]*```/ { fence = !fence; next }
    fence && /^[ \t]*\/\/[\/!]/ { print }
' {} + | grep -ohw '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$tmp/doctest"

total=0
for dir in $dirs; do
    # `pub` items declared before the file's test module. A crate's
    # binaries (`src/bin`) use its library like any other caller.
    find "$dir" -name '*.rs' ! -path '*/bin/*' -exec awk '
        FNR == 1 { found = 0; prev = "" }
        !found && prev ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/ && /^[ \t]*(pub(\([a-z]+\))? )?mod tests[ \t]*\{/ { found = 1 }
        !found && match($0, /^[ \t]*pub (const fn|async fn|unsafe fn|fn|struct|enum|trait|type|const|static|mod|union) +[A-Za-z_][A-Za-z0-9_]*/) {
            decl = substr($0, RSTART, RLENGTH)
            sub(/^[ \t]*pub /, "", decl)
            n = split(decl, w, / +/)
            print FILENAME ":" FNR " " w[n - 1] " " w[n]
        }
        { prev = $0 }
    ' {} + | sort -t' ' -k3,3 >"$tmp/items"

    # Whole words of every file outside this crate's library.
    for d in $corpus_dirs; do
        if [ "$d" = "$dir" ]; then
            find "$d" -path '*/bin/*' -name '*.rs'
        elif [ -d "$d" ]; then
            find "$d" -name '*.rs'
        fi
    done | xargs cat | grep -ohw '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$tmp/words"
    sort -u "$tmp/words" "$tmp/doctest" >"$tmp/used"

    awk 'NR == FNR { used[$0] = 1; next } !($3 in used)' "$tmp/used" "$tmp/items" \
        | sort >"$tmp/unused"
    cat "$tmp/unused"
    n=$(wc -l <"$tmp/unused")
    echo "$n $dir"
    total=$((total + n))
done
echo "$total total"
