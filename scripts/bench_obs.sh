#!/bin/sh
# bench_obs.sh — regenerate BENCH_obs.json, the committed record of
# telemetry and span-tracing overhead on the routing hot path, and gate
# the contracts the obs layer must keep:
#
#   tracer_off_overhead_ns <= MAX_OFF_NS (default 400): the always-on
#     metrics path (engine.Route: two clock reads, two histogram
#     observations, two counter adds) may cost at most this many
#     nanoseconds per route over the uninstrumented core route;
#   span_allocs_off_per_op == 0: a query handed the request span must be
#     allocation-free when the recorder is off;
#   recorder_on_overhead_ns <= MAX_ON_NS (default 1500) and
#     span_allocs_on_per_op <= 1: the flight recorder is on by default, so
#     building a request's span tree and retaining it is part of every
#     route — it may cost at most this much over the uninstrumented core
#     route, and at most one allocation;
#   sampler_overhead_ns <= MAX_SAMPLER_NS (default 400): a running
#     background sampler (history ring + health evaluation feed) may add
#     at most this many nanoseconds per route to the sampler-off path;
#   sampler_allocs_per_op == 0: the cached RouteFrom hot path must stay
#     allocation-free with sampling enabled.
#
# The timing gates are absolute because the cost is: it does not shrink
# when the search does, so every search speed-up inflates it as a share
# of the route (the former <= 1 % gates failed on a 4.4 µs route and the
# route is ~2 µs now) without one instruction of telemetry having
# changed. 400 ns is about 1 % of the cheapest whole request the service
# answers (an nsf_read route, ~38 µs on the wire); the percentages are
# still recorded.
# Each variant keeps its fastest of REPS interleaved repetitions (a few
# milliseconds each); the default is high because the best-of only
# settles to within ~100 ns on a busy two-core machine after dozens.
# Tunables (env): REPS, MAX_OFF_NS, MAX_ON_NS, MAX_SAMPLER_NS, OUT.
set -eu

REPS=${REPS:-60}
MAX_OFF_NS=${MAX_OFF_NS:-400}
MAX_ON_NS=${MAX_ON_NS:-1500}
MAX_SAMPLER_NS=${MAX_SAMPLER_NS:-400}
OUT=${OUT:-BENCH_obs.json}

cd "$(dirname "$0")/.."
${GO:-go} run ./cmd/wdmbench -experiment "" -reps "$REPS" -obs-json "$OUT"

# field <key>: pull one numeric field out of the flat JSON record.
field() {
    sed -n "s/.*\"$1\": \([-0-9.e+]*\),*/\1/p" "$OUT"
}

off_ns=$(field tracer_off_overhead_ns)
allocs_off=$(field span_allocs_off_per_op)
on_ns=$(field recorder_on_overhead_ns)
allocs_on=$(field span_allocs_on_per_op)
sampler_ns=$(field sampler_overhead_ns)
sampler_allocs=$(field sampler_allocs_per_op)
if [ -z "$off_ns" ] || [ -z "$allocs_off" ] || [ -z "$on_ns" ] || [ -z "$allocs_on" ] || [ -z "$sampler_ns" ] || [ -z "$sampler_allocs" ]; then
    echo "bench_obs: $OUT is missing gated fields" >&2
    exit 1
fi
if ! awk -v p="$off_ns" -v max="$MAX_OFF_NS" 'BEGIN { exit !(p <= max) }'; then
    echo "bench_obs: tracer-off overhead ${off_ns} ns/route exceeds ${MAX_OFF_NS} ns" >&2
    exit 1
fi
if ! awk -v a="$allocs_off" 'BEGIN { exit !(a == 0) }'; then
    echo "bench_obs: cached RouteFrom under a recorder-off span allocates ${allocs_off}/op, want 0" >&2
    exit 1
fi
if ! awk -v p="$on_ns" -v max="$MAX_ON_NS" 'BEGIN { exit !(p <= max) }'; then
    echo "bench_obs: recorder-on overhead ${on_ns} ns/route exceeds ${MAX_ON_NS} ns" >&2
    exit 1
fi
if ! awk -v a="$allocs_on" 'BEGIN { exit !(a <= 1) }'; then
    echo "bench_obs: cached RouteFrom under a recorded span allocates ${allocs_on}/op, want <= 1" >&2
    exit 1
fi
if ! awk -v p="$sampler_ns" -v max="$MAX_SAMPLER_NS" 'BEGIN { exit !(p <= max) }'; then
    echo "bench_obs: sampler-on overhead ${sampler_ns} ns/route exceeds ${MAX_SAMPLER_NS} ns over the sampler-off path" >&2
    exit 1
fi
if ! awk -v a="$sampler_allocs" 'BEGIN { exit !(a == 0) }'; then
    echo "bench_obs: cached RouteFrom with sampling enabled allocates ${sampler_allocs}/op, want 0" >&2
    exit 1
fi

echo "--- $OUT ---"
cat "$OUT"
