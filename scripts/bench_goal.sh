#!/bin/sh
# bench_goal.sh — regenerate BENCH_goal.json, the committed record of the
# goal-directed point-query stack (bidirectional Dijkstra and A* under the
# physical lower bound vs the plain goal-set search), and gate two claims
# on the LARGEST tier:
#
#   bidi_settled_reduction >= MIN_REDUCTION (default 2): the
#     bidirectional search must settle at most half the nodes the plain
#     search pops to prove the same optimum;
#   astar_speedup >= MIN_ASTAR_SPEEDUP (default 3): the server's default
#     search, backward bound pass included, must answer at least three
#     times faster than the plain search it replaced as the default.
#
# Every query's cost is cross-checked across all three modes inside the
# benchmark, so a run that completes is also a correctness witness.
# Tunables (env): REPS, MIN_REDUCTION, MIN_ASTAR_SPEEDUP, OUT.
set -eu

REPS=${REPS:-5}
MIN_REDUCTION=${MIN_REDUCTION:-2}
MIN_ASTAR_SPEEDUP=${MIN_ASTAR_SPEEDUP:-3}
OUT=${OUT:-BENCH_goal.json}

cd "$(dirname "$0")/.."
${GO:-go} run ./cmd/wdmbench -experiment "" -reps "$REPS" -goal-json "$OUT"

# field <key>: pull the LAST occurrence of a numeric field — tiers are
# emitted smallest to largest, so the last is the largest tier.
field() {
    sed -n "s/.*\"$1\": \([-0-9.e+]*\),*/\1/p" "$OUT" | tail -n 1
}

reduction=$(field bidi_settled_reduction)
if [ -z "$reduction" ]; then
    echo "bench_goal: $OUT is missing bidi_settled_reduction" >&2
    exit 1
fi
if ! awk -v r="$reduction" -v min="$MIN_REDUCTION" 'BEGIN { exit !(r >= min) }'; then
    echo "bench_goal: largest-tier bidi settled reduction ${reduction}x below ${MIN_REDUCTION}x" >&2
    exit 1
fi

speedup=$(field astar_speedup)
if [ -z "$speedup" ]; then
    echo "bench_goal: $OUT is missing astar_speedup" >&2
    exit 1
fi
if ! awk -v r="$speedup" -v min="$MIN_ASTAR_SPEEDUP" 'BEGIN { exit !(r >= min) }'; then
    echo "bench_goal: largest-tier astar speedup ${speedup}x below ${MIN_ASTAR_SPEEDUP}x" >&2
    exit 1
fi

echo "--- $OUT ---"
cat "$OUT"
