#!/bin/sh
# Code lines by the ROADMAP convention: lines of each file up to its
# first `#[cfg(test)]` (or `#![cfg(test)]`, which as a test-only file's
# first line leaves it none) that are neither blank nor comment-only.
# Run from the repo root: with no arguments prints one row per crate
# (crates/*/src), their total, and the raw line count of every
# non-vendor, non-benchmark *.rs; with file arguments counts those
# files; `--max FILE` checks the rows against the ceilings in FILE.
count() {
    awk 'FNR == 1 { test = 0 }
         /^[[:space:]]*#!?\[cfg\(test\)\]/ { test = 1 }
         !test && !/^[[:space:]]*($|\/\/)/ { n++ }
         END { print n + 0 }' "$@"
}
if [ "$1" = --max ]; then
    # FILE holds "name ceiling" rows (scripts/loc.max is the committed
    # one). Code lines are meant to go down: a change that needs more
    # raises a ceiling in its own diff, where a reviewer sees it.
    sh "$0" | awk 'NR == FNR { max[$1] = $2; next }
                { print }
                ($1 in max) && $2 > max[$1] {
                    printf "%s: %d code lines, ceiling %d\n", $1, $2, max[$1] > "/dev/stderr"
                    over = 1
                }
                END { exit over }' "$2" -
    exit
fi
if [ $# -gt 0 ]; then
    count "$@"
    exit
fi
total=0
for crate in crates/*/; do
    n=$(count $(find "$crate"src -name '*.rs'))
    printf '%-12s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
all=$(git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/' | xargs cat | wc -l)
printf '%-12s %6d\n' 'all *.rs' "$all"
