#!/bin/sh
# serve_smoke.sh boots `robustqo serve` with a deliberately tiny
# admission gate, then asserts over plain HTTP that (1) a repeated query
# is served from the plan cache, (2) a prepared statement round-trips
# through /prepare + /exec as a cache hit, and a new binding misses once
# and then hits, (3) an overload burst is shed
# with the robustqo_admission_* counters visible in /metrics, and (4)
# SIGTERM drains gracefully, persists the feedback ledger, and leaves an
# event log and a slow-query log covering the smoke's queries.
set -eu

ADDR=${SERVE_SMOKE_ADDR:-localhost:6067}
TMP=$(mktemp -d)
cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/robustqo" ./cmd/robustqo
"$TMP/robustqo" serve -debug-addr "$ADDR" -lines 8000 \
    -admission-slots 1 -admission-queue 1 -admission-queue-timeout-ms 1 \
    -ledger-out "$TMP/ledger.bin" \
    -events "$TMP/events.jsonl" -slow-query-ms 0 -slow-log "$TMP/slow.jsonl" &
PID=$!

ready=0
for _ in $(seq 1 120); do
    if curl -fsS "http://$ADDR/" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.5
done
[ "$ready" = 1 ] || { echo "serve-smoke: server never became ready" >&2; exit 1; }

Q="http://$ADDR/query?sql=SELECT%20COUNT(*)%20AS%20n%20FROM%20lineitem%20WHERE%20l_quantity%20%3C%2010"
curl -fsS "$Q" | grep -q 'plan cache: miss' || { echo "serve-smoke: cold query was not a miss" >&2; exit 1; }
curl -fsS "$Q" | grep -q 'plan cache: hit' || { echo "serve-smoke: repeated query was not a hit" >&2; exit 1; }

STMT=$(curl -fsS "http://$ADDR/prepare?sql=SELECT%20COUNT(*)%20AS%20n%20FROM%20lineitem%20WHERE%20l_quantity%20%3C%2010" \
    | sed -n 's/.*"stmt":"\([^"]*\)".*/\1/p')
[ -n "$STMT" ] || { echo "serve-smoke: /prepare returned no statement id" >&2; exit 1; }
curl -fsS "http://$ADDR/exec?stmt=$STMT&args=10" | grep -q 'plan cache: hit' \
    || { echo "serve-smoke: prepared exec was not a cache hit" >&2; exit 1; }
curl -fsS "http://$ADDR/exec?stmt=$STMT&args=17" | grep -q 'plan cache: miss' \
    || { echo "serve-smoke: new binding was not a miss" >&2; exit 1; }
curl -fsS "http://$ADDR/exec?stmt=$STMT&args=17" | grep -q 'plan cache: hit' \
    || { echo "serve-smoke: repeated new binding was not a hit" >&2; exit 1; }

# Overload burst against 1 slot + 1 queue seat: most requests must shed.
# The three-way join is slow enough to hold the slot while the burst
# lands.
J="http://$ADDR/query?sql=SELECT%20COUNT(*)%20AS%20n%20FROM%20lineitem,%20orders,%20part%20WHERE%20p_size%20%3C%2040%20AND%20l_quantity%20%3C%2045"
PIDS=""
for _ in $(seq 1 12); do
    curl -s -o /dev/null "$J" &
    PIDS="$PIDS $!"
done
wait $PIDS

METRICS=$(curl -fsS "http://$ADDR/metrics")
echo "$METRICS" | grep -Eq 'robustqo_plancache_hits_total [1-9]' \
    || { echo "serve-smoke: no plan-cache hits in /metrics" >&2; exit 1; }
echo "$METRICS" | grep -Eq 'robustqo_admission_(shed|timeouts)_total [1-9]' \
    || { echo "serve-smoke: overload burst recorded no shed/timeout counters" >&2; exit 1; }

# Graceful shutdown: SIGTERM drains and persists the ledger.
kill -TERM "$PID"
wait "$PID" || { echo "serve-smoke: server exited non-zero on SIGTERM" >&2; exit 1; }
PID=""
[ -s "$TMP/ledger.bin" ] || { echo "serve-smoke: shutdown did not persist the ledger" >&2; exit 1; }

# The five sequential queries above were all admitted, so each has its
# three lifecycle events; with a zero threshold each is a slow-query
# capture carrying its EXPLAIN ANALYZE.
for ev in received optimized done; do
    n=$(grep -c "\"event\":\"$ev\"" "$TMP/events.jsonl" || true)
    [ "$n" -ge 5 ] || { echo "serve-smoke: event log has $n \"$ev\" lines, want >= 5" >&2; exit 1; }
done
grep -q '"analyze":"' "$TMP/slow.jsonl" \
    || { echo "serve-smoke: slow-query log has no analyze capture" >&2; exit 1; }
echo "serve-smoke: plan-cache hits, prepared exec miss/hit, shedding, graceful drain, and event/slow logs all verified"
