#!/bin/sh
# weaken-smoke: port + -O the weakening flagships through the atomig
# CLI and assert the optimizer's contract end to end — the baseline
# verdict holds (the report says so only after re-verifying every
# committed weakening cumulatively), the static cost strictly
# decreases, and the report is byte-identical at -j 1 and -j 4. It
# also pins the weakener's choice of screening engine: cna-lock's
# baseline explores more than the crossover's 1,000 executions, so its
# candidates are screened by stress sweeps (a `stress screens:` line)
# and it spends 17 checker re-verifications where checker screens
# spent 59. The count is exact at every -j, so going above 24 is a
# regression, not noise. seqlock-gap's baseline sits below the
# crossover, so its report shows no stress screens. Driven by
# `make weaken-smoke` (wired into `make check`).
#
# Usage: weaken-smoke.sh <atomig-binary>
set -e

ATOMIG="$1"
if [ -z "$ATOMIG" ]; then
    echo "usage: $0 <atomig-binary>" >&2
    exit 2
fi
MAX_CNA_CHECKS=24

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

for prog in seqlock-gap cna-lock; do
    for j in 1 4; do
        "$ATOMIG" -O -j "$j" -corpus "$prog" > "$dir/$prog-j$j.raw" || {
            echo "weaken-smoke: $prog: atomig -O -j $j failed" >&2
            exit 1
        }
        # The porting time is the report's one wall-clock line.
        grep -v "porting time:" "$dir/$prog-j$j.raw" > "$dir/$prog-j$j.out"
    done
    cmp "$dir/$prog-j1.out" "$dir/$prog-j4.out" || {
        echo "weaken-smoke: $prog: report differs between -j 1 and -j 4" >&2
        exit 1
    }
    out="$dir/$prog-j1.out"
    grep -q "baseline verified" "$out" || {
        echo "weaken-smoke: $prog: baseline not verified:" >&2
        cat "$out" >&2
        exit 1
    }
    line=$(grep "static cost" "$out")
    before=$(echo "$line" | sed -E 's/.*: *([0-9]+) -> ([0-9]+) cycles.*/\1/')
    after=$(echo "$line" | sed -E 's/.*: *([0-9]+) -> ([0-9]+) cycles.*/\2/')
    checks=$(grep "checker re-verifications" "$out" | sed -E 's/.*: *([0-9]+)$/\1/')
    case "$before$after$checks" in
        *[!0-9]*|'')
            echo "weaken-smoke: $prog: could not parse the report:" >&2
            cat "$out" >&2
            exit 1 ;;
    esac
    if [ "$after" -ge "$before" ]; then
        echo "weaken-smoke: $prog: cost did not strictly decrease ($before -> $after)" >&2
        exit 1
    fi
    screens=$(grep "stress screens:" "$out" | sed -E 's/.*: *([0-9]+) .*/\1/')
    if [ "$prog" = cna-lock ]; then
        if [ "$checks" -gt "$MAX_CNA_CHECKS" ]; then
            echo "weaken-smoke: cna-lock: $checks checker re-verifications, want <= $MAX_CNA_CHECKS" >&2
            exit 1
        fi
        if [ -z "$screens" ]; then
            echo "weaken-smoke: cna-lock: no stress screens; its baseline is above the crossover" >&2
            exit 1
        fi
    elif [ -n "$screens" ]; then
        echo "weaken-smoke: $prog: $screens stress screens below the crossover" >&2
        exit 1
    fi
    echo "weaken-smoke: $prog: verified, cost $before -> $after cycles, $checks checks, ${screens:-no} stress screens, same report at -j 1 and -j 4"
done
