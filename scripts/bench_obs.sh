#!/bin/sh
# bench_obs.sh — regenerate BENCH_obs.json, the committed record of
# telemetry and span-tracing overhead on the routing hot path, and gate
# the two contracts the obs layer must keep:
#
#   tracer_off_overhead_pct <= MAX_OFF_PCT (default 1): the always-on
#     metrics path (engine.Route) must stay within 1% of the
#     uninstrumented core route;
#   span_allocs_off_per_op == 0: a query handed the request span must be
#     allocation-free when the recorder is off;
#   sampler_overhead_pct <= MAX_SAMPLER_PCT (default 1): a running
#     background sampler (history ring + health evaluation feed) must
#     stay within 1% of the sampler-off metrics path;
#   sampler_allocs_per_op == 0: the cached RouteFrom hot path must stay
#     allocation-free with sampling enabled.
#
# The recorder-on figures (overhead + allocs/op) are recorded, not
# gated — they are the cost a deployment opts into.
# Each variant keeps its fastest of REPS repetitions; the default is
# high because the 1% gates sit well inside scheduler noise on a busy
# machine. Tunables (env): REPS, MAX_OFF_PCT, MAX_SAMPLER_PCT, OUT.
set -eu

REPS=${REPS:-15}
MAX_OFF_PCT=${MAX_OFF_PCT:-1}
MAX_SAMPLER_PCT=${MAX_SAMPLER_PCT:-1}
OUT=${OUT:-BENCH_obs.json}

cd "$(dirname "$0")/.."
${GO:-go} run ./cmd/wdmbench -experiment "" -reps "$REPS" -obs-json "$OUT"

# field <key>: pull one numeric field out of the flat JSON record.
field() {
    sed -n "s/.*\"$1\": \([-0-9.e+]*\),*/\1/p" "$OUT"
}

off_pct=$(field tracer_off_overhead_pct)
allocs_off=$(field span_allocs_off_per_op)
sampler_pct=$(field sampler_overhead_pct)
sampler_allocs=$(field sampler_allocs_per_op)
if [ -z "$off_pct" ] || [ -z "$allocs_off" ] || [ -z "$sampler_pct" ] || [ -z "$sampler_allocs" ]; then
    echo "bench_obs: $OUT is missing gated fields" >&2
    exit 1
fi
if ! awk -v p="$off_pct" -v max="$MAX_OFF_PCT" 'BEGIN { exit !(p <= max) }'; then
    echo "bench_obs: tracer-off overhead ${off_pct}% exceeds ${MAX_OFF_PCT}% of baseline" >&2
    exit 1
fi
if ! awk -v a="$allocs_off" 'BEGIN { exit !(a == 0) }'; then
    echo "bench_obs: cached RouteFrom under a recorder-off span allocates ${allocs_off}/op, want 0" >&2
    exit 1
fi
if ! awk -v p="$sampler_pct" -v max="$MAX_SAMPLER_PCT" 'BEGIN { exit !(p <= max) }'; then
    echo "bench_obs: sampler-on overhead ${sampler_pct}% exceeds ${MAX_SAMPLER_PCT}% of the sampler-off path" >&2
    exit 1
fi
if ! awk -v a="$sampler_allocs" 'BEGIN { exit !(a == 0) }'; then
    echo "bench_obs: cached RouteFrom with sampling enabled allocates ${sampler_allocs}/op, want 0" >&2
    exit 1
fi

echo "--- $OUT ---"
cat "$OUT"
