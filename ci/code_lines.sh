#!/usr/bin/env bash
# Non-test code lines of the given files, summed: what is above a file's
# `#[cfg(test)]`, minus blank lines and `//` comment lines — the count a
# simplicity entry in CHANGES.md reports before and after. A path that no
# longer exists counts 0, so one file list reads both sides of a deletion.
set -euo pipefail

total=0
for f in "$@"; do
    if [ -f "$f" ]; then
        n=$(sed '/^#\[cfg(test)\]/,$d' "$f" | grep -cvE '^\s*(//|$)' || true)
        total=$((total + n))
    fi
done
echo "$total"
