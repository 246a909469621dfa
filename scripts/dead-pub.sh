#!/bin/sh
# Public functions no target calls: every `pub fn` of `crates/*/src` and
# `src` that no crate but its own names, and its own only in unit tests.
#
#   scripts/dead-pub.sh
#
# Run from the repository root; needs cargo and jq. It copies the tree
# (uncommitted edits included) to a temp dir, makes every `pub fn` there
# `pub(crate)` and checks every target of the workspace and of
# `benchmark/`. Each function a check refuses as private is made `pub`
# again, until everything checks; the dead-code warnings of the library
# builds then name the rest. Prints one `<file>:<line> <name>` line per
# such function, then the count. A name a doc test of its own crate holds
# is not printed (doc tests are not checked). A report: it exits 0
# whatever it finds, and 1 only when the copy cannot be made to check.
#
# Unlike `public-items.sh`, which matches names as words, it sees a dead
# `pub fn len` beside a live one.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/repo"
tar --exclude=./.git --exclude=./target --exclude=./benchmark/target \
    --exclude=./.bench_build -cf - . | tar -xf - -C "$tmp/repo"
cd "$tmp/repo"
export CARGO_TARGET_DIR="$tmp/target"

dirs="$(ls -d crates/*/src) src"
find $dirs -name '*.rs' -exec sed -i -E \
    's/^([[:space:]]*)pub ((const |async |unsafe )*fn )/\1pub(crate) \2/' {} +

# Whole words of each crate's doc tests, one file per crate.
for dir in $dirs; do
    find "$dir" -name '*.rs' -exec awk '
        FNR == 1 { fence = 0 }
        /^[ \t]*\/\/[\/!][ \t]*```/ { fence = !fence; next }
        fence && /^[ \t]*\/\/[\/!]/ { print }
    ' {} + | grep -ohw '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$tmp/doctest.$(echo "$dir" | tr / _)"
done

check() {
    cargo check -q --offline --workspace --all-targets --message-format=json 2>/dev/null || true
    cargo check -q --offline --manifest-path benchmark/Cargo.toml --all-targets \
        --message-format=json 2>/dev/null || true
}

# `<file>:<line>` of every definition a check refused as private, paths
# relative to the copy: where the error points at it, or, for a refused
# re-export (`pub use`), its crate's `pub(crate) fn` of that name.
refused() {
    jq -r --arg root "$PWD/" '
        select(.reason == "compiler-message" and .message.level == "error")
        | .message
        | ((.spans[] | select((.label // "") | test("defined here"))),
           (.children[] | select(.message | test("defined here")) | .spans[]))
        | "\(.file_name | ltrimstr($root)):\(.line_start)"' "$1"
    jq -r --arg root "$PWD/" '
        select(.reason == "compiler-message" and .message.code.code == "E0364")
        | .message
        | (.spans[0].file_name | ltrimstr($root)
            | if startswith("src/") then "src" else sub("/src/.*"; "/src") end) as $dir
        | "\($dir) \(.message | capture("`(?<n>[^`]+)`").n)"' \
        "$1" | sort -u | while read -r dir name; do
        grep -rnE "pub\(crate\) (const |async |unsafe )*fn $name\b" "$dir" | cut -d: -f1,2
    done
}

while :; do
    check >"$tmp/check.json"
    refused "$tmp/check.json" | sort -u >"$tmp/refused"
    [ -s "$tmp/refused" ] || break
    while IFS=: read -r file line; do
        sed -i "${line}s/pub(crate) /pub /" "$file"
    done <"$tmp/refused"
done
if [ "$(jq -s '[.[] | select(.reason == "build-finished") | .success]
    | length == 2 and all' "$tmp/check.json")" != true ]; then
    echo "dead-pub: the copy does not check, and no private function is to blame:" >&2
    jq -r 'select(.reason == "compiler-message" and .message.level == "error")
        | .message.rendered' "$tmp/check.json" >&2
    exit 1
fi

# Dead-code warnings of the library builds, on a line made `pub(crate)`.
jq -r --arg root "$PWD/" '
    select(.reason == "compiler-message" and .message.code.code == "dead_code"
        and (.target.kind | index("lib")) and (.profile.test | not))
    | .message.spans[] | select(.is_primary) | .text[0] as $t
    | "\(.file_name | ltrimstr($root)) \(.line_start) \($t.text[($t.highlight_start - 1):($t.highlight_end - 1)])"' \
    "$tmp/check.json" | sort -u | while read -r file line name; do
    case $file in
    src/*) crate=src ;;
    *) crate=${file%%/src/*}/src ;;
    esac
    if sed -n "${line}p" "$file" | grep -Eq 'pub\(crate\) (const |async |unsafe )*fn ' &&
        ! grep -qx "$name" "$tmp/doctest.$(echo "$crate" | tr / _)"; then
        echo "$file:$line $name"
    fi
done | sort -t: -k1,1 -k2,2n >"$tmp/dead"
cat "$tmp/dead"
echo "$(wc -l <"$tmp/dead") total"
