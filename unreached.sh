#!/bin/sh
# Reachability gate: every function that no experiment runs is listed, with
# the reason it stays, in internal/bench/testdata/unreached.txt.
#
# The probe is tier-1's BenchmarkExperiments (every experiment at tiny
# scale, seed 1; fig12 skipped) under -coverpkg=./..., read with
# `go tool cover -func`. A function outside cmd/, examples/ and
# internal/vet/ is unreached when none of its statements ran (0.0 %) and
# no block starting on its declaration line ran: an empty function has no
# statement, so it reads 0.0 % however often it is called. A method is
# named Type.Method, from its declaration line. The step fails on a newly
# unreached function (call it from an experiment, delete it, or list it
# with a reason) and on a listed one that now runs (drop its line).
#
# A package that no binary of the module links has no line in the
# profile at all, so none of its functions can be listed. Every package
# of `go list ./...` outside cmd/, examples/ and internal/vet/ must have a
# profile line or a list line of its own; a listed package that has
# profile lines fails too.
#
# List lines are "<file> <function> <reason>" or "package <dir> <reason>";
# '#' starts a comment line.
set -e

cd "$(dirname "$0")"
list=internal/bench/testdata/unreached.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if ! go test . -run '^$' -bench '^BenchmarkExperiments$' -benchtime 1x \
    -coverpkg=./... -coverprofile "$tmp/cover.out" >"$tmp/bench.log" 2>&1; then
    cat "$tmp/bench.log"
    exit 1
fi

go tool cover -func "$tmp/cover.out" | awk -v profile="$tmp/cover.out" '
BEGIN {
    while ((getline b < profile) > 0) {
        if (b ~ /^mode:/ || b ~ / 0$/) continue
        split(b, at, ":")
        split(at[2], pos, ".")
        ran[at[1] ":" pos[1]] = 1
    }
}
$NF == "0.0%" {
    split($1, at, ":")
    if ((at[1] ":" at[2]) in ran) next
    file = at[1]
    sub(/^lambdafs\//, "", file)
    if (file ~ /^(cmd|examples|internal\/vet)\//) next
    n = 0
    while ((getline src < file) > 0 && ++n < at[2]) {}
    close(file)
    name = $2
    if (src ~ /^func \(/) {
        recv = src
        sub(/^func \(/, "", recv)
        sub(/\).*/, "", recv)
        sub(/.*[ *]/, "", recv)
        sub(/\[.*/, "", recv)
        name = recv "." name
    }
    print file, name
}' | LC_ALL=C sort >"$tmp/unreached"

# Packages with no profile line, by directory ("." for the module root).
awk -F: 'NR > 1 { sub(/\/[^\/]*$/, "", $1); print $1 }' "$tmp/cover.out" | LC_ALL=C sort -u >"$tmp/profiled"
go list ./... | grep -vE '^lambdafs/(cmd|examples|internal/vet)(/|$)' | LC_ALL=C sort |
    LC_ALL=C comm -23 - "$tmp/profiled" |
    sed -e 's#^lambdafs$#.#' -e 's#^lambdafs/##' -e 's/^/package /' >>"$tmp/unreached"
LC_ALL=C sort -o "$tmp/unreached" "$tmp/unreached"

if awk 'NF && !/^#/ && NF < 3' "$list" | grep .; then
    echo "unreached: the lines above in $list give no reason"
    exit 1
fi
awk 'NF && !/^#/ { print $1, $2 }' "$list" | LC_ALL=C sort >"$tmp/listed"

if ! diff "$tmp/listed" "$tmp/unreached" >"$tmp/diff"; then
    sed -n 's/^> package /package linked by no binary of the module (import it from an experiment, delete it, or list it with a reason): /p' "$tmp/diff"
    sed -n '/^> package /!s/^> /newly unreached (call it from an experiment, delete it, or list it with a reason): /p' "$tmp/diff"
    sed -n 's/^< package /package listed but linked (drop its line): /p' "$tmp/diff"
    sed -n '/^< package /!s/^< /listed but reached (drop its line): /p' "$tmp/diff"
    exit 1
fi
echo "$(grep -vc '^package ' "$tmp/unreached") unreached functions and $(grep -c '^package ' "$tmp/unreached") unlinked package(s), each listed with its reason in $list"
