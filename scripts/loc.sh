#!/bin/sh
# Code lines by the ROADMAP convention: lines of each file up to its
# first `#[cfg(test)]` that are neither blank nor comment-only.
# Informational. Run from the repo root: with no arguments prints one
# row per crate (crates/*/src), their total, and the raw line count of
# every non-vendor, non-benchmark *.rs; with arguments counts those files.
count() {
    awk 'FNR == 1 { test = 0 }
         /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
         !test && !/^[[:space:]]*($|\/\/)/ { n++ }
         END { print n + 0 }' "$@"
}
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
