#!/usr/bin/env bash
# Prints the net non-test Rust line count: for every `.rs` file outside
# `tests/`, `vendor/` and `aw-benchmark/`, the lines before its first
# `#[cfg(test)]`. Counts the working tree (tracked and untracked files
# that git does not ignore); given a git revision, also counts that
# revision and prints the difference.
#
#   scripts/loc.sh           # the working tree
#   scripts/loc.sh HEAD~1    # the working tree and HEAD~1
set -euo pipefail
cd "$(dirname "$0")/.."

# Keeps the paths that count, one per line.
counted() { grep '\.rs$' | grep -Ev '(^|/)tests/|^vendor/|^aw-benchmark/' || true; }

# Lines before the first `#[cfg(test)]` of the file on stdin. Reads to
# the end, so a `git show` writing into it never meets a closed pipe.
lines() { awk 'index($0, "#[cfg(test)]") { done = 1 } !done { n++ } END { print n + 0 }'; }

tree=0
while read -r path; do
    if [ -f "$path" ]; then
        tree=$((tree + $(lines <"$path")))
    fi
done < <(git ls-files --cached --others --exclude-standard | counted)

if [ $# -eq 0 ]; then
    echo "net non-test LOC: $tree"
    exit 0
fi

rev=$1
base=0
while read -r path; do
    base=$((base + $(git show "$rev:$path" | lines)))
done < <(git ls-tree -r --name-only "$rev" | counted)
printf 'net non-test LOC: %s %d -> working tree %d (%+d)\n' "$rev" "$base" "$tree" $((tree - base))
