#!/bin/sh
# The reachability ledger: every `pub` fn / struct / enum / trait / type /
# const / static under crates/*/src, methods included, declared before its
# file's first `#[cfg(test)]` (the convention of scripts/loc.sh), whose
# name has no whole-word use outside its own definition line in
#   - the non-test code of crates/*/src (bench bins count as callers),
#   - examples/*.rs,
#   - benchmark/src/api.rs,
# with comments and string literals stripped. Unit tests and tests/ are
# not callers, so an item only they reach is listed.
#
# Matching is by name and deliberately conservative: a dead item that
# shares its name with a live one (or with any other word of the code) is
# missed, never the reverse. Every listed item is unreached by the
# programs; an unlisted one may still be dead.
#
# Run from the repo root. With no arguments prints one `path name` row
# per item. `--check FILE` compares the scan with FILE (scripts/unreached.txt
# is the committed one: `path name  # reason` rows) and exits 1 when an
# item the scan finds is missing from FILE or a row of FILE is no longer
# found, so the list can only shrink and stays true, or when a row gives
# no reason after its `#`.
LC_ALL=C
export LC_ALL
scan() {
    { find crates/*/src -name '*.rs' | sort; ls examples/*.rs; echo benchmark/src/api.rs; } |
    xargs awk '
    FNR == 1 { test = 0; incomment = 0; instr = 0
               crate = FILENAME ~ /^crates\/[^\/]*\/src\// }
    # Removes comments and string literals, carrying block comments and
    # multi-line strings across lines; char literals go, lifetimes stay.
    function strip(line,    out, i, pre, q, h) {
        out = ""
        while (line != "") {
            if (incomment) {
                i = index(line, "*/")
                if (!i) return out
                line = substr(line, i + 2); incomment = 0
            } else if (instr) {
                if (rawh == "") {
                    if (!match(line, /^([^"\\]|\\.)*"/)) return out
                    line = substr(line, RLENGTH + 1)
                } else {
                    i = index(line, "\"" rawh)
                    if (!i) return out
                    line = substr(line, i + 1 + length(rawh))
                }
                instr = 0; out = out " "
            } else {
                if (!match(line, /\/\/|\/\*|"|'\''/)) return out line
                pre = substr(line, 1, RSTART - 1)
                q = substr(line, RSTART, RLENGTH)
                line = substr(line, RSTART + RLENGTH)
                if (q == "//") return out pre
                if (q == "/*") { incomment = 1; out = out pre " "; continue }
                if (q == "\"") {
                    rawh = ""
                    if (match(pre, /(^|[^A-Za-z0-9_])b?r#*$/)) {
                        h = substr(pre, RSTART, RLENGTH)
                        sub(/^[^#]*/, "", h); rawh = h
                        sub(/b?r#*$/, "", pre)
                    }
                    instr = 1; out = out pre; continue
                }
                # A quote: a char literal is dropped, a lifetime kept.
                out = out pre
                if (match(line, /^(\\.[^'\'']*|[^\\'\''A-Za-z0-9_]+|[A-Za-z0-9_])'\''/))
                    line = substr(line, RLENGTH + 1)
                else
                    out = out "'\''"
            }
        }
        return out
    }
    {
        if (crate && $0 ~ /^[ \t]*#!?\[cfg\(test\)\]/) test = 1
        if (crate && test) next
        s = strip($0)
        if (crate && match(s, /^[ \t]*pub[ \t]+((const|unsafe|async|extern)[ \t]+)*(fn|struct|enum|trait|type|const|static)[ \t]+(mut[ \t]+)?[A-Za-z_][A-Za-z0-9_]*/)) {
            d = substr(s, RSTART, RLENGTH)
            sub(/.*[^A-Za-z0-9_]/, "", d)
            ndef++; defn[ndef] = d; deff[ndef] = FILENAME; own[ndef] = 0
            mine = 1
        } else mine = 0
        while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) {
            w = substr(s, RSTART, RLENGTH)
            uses[w]++
            if (mine && w == defn[ndef]) own[ndef]++
            s = substr(s, RSTART + RLENGTH)
        }
    }
    END {
        for (i = 1; i <= ndef; i++)
            if (uses[defn[i]] == own[i]) print deff[i], defn[i]
    }' | sort
}
if [ "$1" = --check ]; then
    tmp=$(mktemp -d) || exit 2
    trap 'rm -rf "$tmp"' EXIT
    scan > "$tmp/found"
    sed 's/#.*//; s/[[:space:]]*$//; /^$/d' "$2" | sort > "$tmp/listed"
    comm -23 "$tmp/found" "$tmp/listed" | sed 's/^/unreached and not listed: /' > "$tmp/err"
    comm -13 "$tmp/found" "$tmp/listed" | sed 's/^/listed but no longer found: /' >> "$tmp/err"
    grep -v '^[[:space:]]*\(#\|$\)' "$2" | grep -v '#[[:space:]]*[^[:space:]]' |
        sed 's/^/listed without a reason: /' >> "$tmp/err"
    if [ -s "$tmp/err" ]; then
        cat "$tmp/err" >&2
        exit 1
    fi
    exit 0
fi
scan
