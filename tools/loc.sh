#!/usr/bin/env bash
# Rust line count of the project: every tracked `*.rs` file outside
# `benchmark/` and `vendor/`, split into test files (a path with a
# `tests/` directory in it) and the rest (`src`, which includes the
# in-file `#[cfg(test)]` modules and `examples/`).
#
#   tools/loc.sh [rev]     (default: the working tree's tracked files)
#
# Prints `src <n>`, `tests <n>` and `total <n>`, one per line.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
rev="${1:-}"
if [ -n "$rev" ]; then
    files() { git ls-tree -r --name-only "$rev"; }
    lines() { git show "$rev:$1" | wc -l; }
else
    files() { git ls-files; }
    lines() { wc -l <"$1"; }
fi
src=0 tests=0
while read -r path; do
    case "$path" in
        benchmark/* | vendor/*) ;;
        tests/* | */tests/*) tests=$((tests + $(lines "$path"))) ;;
        *) src=$((src + $(lines "$path"))) ;;
    esac
done < <(files | grep '\.rs$')
printf 'src %d\ntests %d\ntotal %d\n' "$src" "$tests" "$((src + tests))"
