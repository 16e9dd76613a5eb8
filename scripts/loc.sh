#!/bin/sh
# loc.sh — print each Go package's non-test source lines and the total.
# Blank lines and comment-only lines (// lines, and lines inside or made up
# only of a /* */ block) do not count; _test.go files are skipped. The
# complexity axis of the performance-complexity trade-off is this total.
#
#   sh scripts/loc.sh          (or: make loc)
set -eu

cd "$(dirname "$0")/.."

# Word splitting on the file list is fine: Go source paths carry no spaces.
# shellcheck disable=SC2046
awk '
FNR == 1 {
    dir = FILENAME
    sub(/\/[^\/]*$/, "", dir)
    sub(/^\.\/?/, "", dir)
    if (dir == "") dir = "."
    inblock = 0
}
{
    line = $0
    gsub(/^[ \t]+|[ \t]+$/, "", line)
    if (inblock) {
        if (index(line, "*/") == 0) next
        inblock = 0
        line = substr(line, index(line, "*/") + 2)
        gsub(/^[ \t]+/, "", line)
    }
    if (line == "" || line ~ /^\/\//) next
    if (line ~ /^\/\*/) {
        if (index(substr(line, 3), "*/") == 0) { inblock = 1; next }
        rest = substr(line, index(substr(line, 3), "*/") + 4)
        gsub(/^[ \t]+/, "", rest)
        if (rest == "" || rest ~ /^\/\//) next
    }
    loc[dir]++
    total++
}
END {
    n = 0
    for (d in loc) dirs[n++] = d
    # insertion sort: awk has no portable sort builtin
    for (i = 1; i < n; i++) {
        v = dirs[i]
        for (j = i - 1; j >= 0 && dirs[j] > v; j--) dirs[j + 1] = dirs[j]
        dirs[j + 1] = v
    }
    for (i = 0; i < n; i++) printf "%7d  %s\n", loc[dirs[i]], dirs[i]
    printf "%7d  total\n", total
}' $(find . -name '*.go' ! -name '*_test.go' ! -path './.*' ! -path '*/testdata/*' | sort)
