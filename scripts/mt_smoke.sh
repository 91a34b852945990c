#!/usr/bin/env bash
# mt_smoke.sh — end-to-end smoke test of the multithreaded workload plane
# and the port-filtering scheme family against a live daemon. Builds
# regsimd, regsimc, and checkresults, starts the daemon on a scratch port
# with a durable store, then drives the ISSUE 10 acceptance scenario:
#
#   * a T=4 multithreaded sweep mixing a port-filtering scheme
#     (port:16x2:p2) with an unported one (use:64x2) via POST /v1/sweep,
#   * checkresults validates the v3 document: per-thread stat blocks,
#     port-conflict stalls included, reconcile with machine totals,
#   * a port × thread-count exploration (ports 0,2 × threads 1,2) via
#     POST /v1/explore, validated with checkresults -explore,
#   * warm re-submissions return byte-identical documents with zero new
#     simulations (runner memo),
#   * a SIGTERM drain, then a fresh daemon over the same store replays
#     both documents byte-identically with zero simulations ever run in
#     the new process (durable-store replay of v3 fingerprints).
#
# Artifacts (documents, metrics scrapes, daemon log) land in $OUTDIR.
set -euo pipefail

PORT="${PORT:-18745}"
OUTDIR="${OUTDIR:-/tmp/mt-smoke}"
BASE="http://127.0.0.1:${PORT}"
STORE="$OUTDIR/store"

mkdir -p "$OUTDIR"
go build -o "$OUTDIR/regsimd" ./cmd/regsimd
go build -o "$OUTDIR/regsimc" ./cmd/regsimc
go build -o "$OUTDIR/checkresults" ./cmd/checkresults

start_daemon() {
    "$OUTDIR/regsimd" -addr "127.0.0.1:${PORT}" -workers 2 -store "$STORE" >>"$OUTDIR/regsimd.log" 2>&1 &
    DAEMON=$!
    trap 'kill "$DAEMON" 2>/dev/null || true' EXIT
    for i in $(seq 1 50); do
        curl -fsS "$BASE/healthz" >/dev/null 2>&1 && return 0
        [ "$i" = 50 ] && { echo "daemon never became healthy"; cat "$OUTDIR/regsimd.log"; exit 1; }
        sleep 0.2
    done
}

stop_daemon() {
    kill -TERM "$DAEMON"
    for i in $(seq 1 100); do
        kill -0 "$DAEMON" 2>/dev/null || break
        [ "$i" = 100 ] && { echo "FAIL: daemon did not drain on SIGTERM"; exit 1; }
        sleep 0.2
    done
    trap - EXIT
    wait "$DAEMON" 2>/dev/null || true
}

# jobs_run scrapes the cumulative simulations-executed counter.
jobs_run() {
    curl -fsS "$BASE/metrics" | awk '$1 == "serve_runner_jobs_run" {print int($2)}'
}

mt_sweep() {
    "$OUTDIR/regsimc" submit -server "$BASE" \
        -benches gzip,mcf \
        -schemes port:16x2:p2,use:64x2 \
        -threads 4 -insts 12000 \
        -o "$1"
}

port_explore() {
    "$OUTDIR/regsimc" explore -server "$BASE" \
        -benches gzip \
        -entries 16,32 -ways 2 -index filtered \
        -ports 0,2 -threads 1,2 \
        -insts 4000 \
        -o "$1"
}

start_daemon

echo "== cold multithreaded sweep (T=4, ported + unported schemes)"
mt_sweep "$OUTDIR/mt.json" | tee "$OUTDIR/mt.out"
"$OUTDIR/checkresults" -benches gzip,mcf "$OUTDIR/mt.json"
grep -q '"threads": *4' "$OUTDIR/mt.json" \
    || { echo "FAIL: sweep document carries no thread count"; exit 1; }
grep -q '"thread_stats"' "$OUTDIR/mt.json" \
    || { echo "FAIL: sweep document carries no per-thread stat blocks"; exit 1; }
COLD_SWEEP=$(jobs_run)
[ "$COLD_SWEEP" -gt 0 ] || { echo "FAIL: cold sweep simulated nothing"; exit 1; }

echo "== cold port x thread exploration (8 candidates)"
port_explore "$OUTDIR/explore.json" | tee "$OUTDIR/explore.out"
grep -q "frontier (cheapest first):" "$OUTDIR/explore.out" \
    || { echo "FAIL: regsimc explore did not render a frontier table"; exit 1; }
"$OUTDIR/checkresults" -explore "$OUTDIR/explore.json"
COLD_ALL=$(jobs_run)
[ "$COLD_ALL" -gt "$COLD_SWEEP" ] || { echo "FAIL: cold exploration simulated nothing"; exit 1; }

echo "== warm re-submissions (memo: byte-identical, zero new simulations)"
mt_sweep "$OUTDIR/mt-warm.json" >/dev/null
cmp "$OUTDIR/mt.json" "$OUTDIR/mt-warm.json" \
    || { echo "FAIL: warm sweep is not byte-identical"; exit 1; }
port_explore "$OUTDIR/explore-warm.json" >/dev/null
cmp "$OUTDIR/explore.json" "$OUTDIR/explore-warm.json" \
    || { echo "FAIL: warm exploration is not byte-identical"; exit 1; }
WARM_ALL=$(jobs_run)
[ "$WARM_ALL" = "$COLD_ALL" ] \
    || { echo "FAIL: warm re-submissions ran $((WARM_ALL - COLD_ALL)) extra simulations"; exit 1; }

echo "== drain and restart over the same store"
stop_daemon
start_daemon

echo "== store replay (fresh process: byte-identical, zero simulations)"
mt_sweep "$OUTDIR/mt-replay.json" >/dev/null
cmp "$OUTDIR/mt.json" "$OUTDIR/mt-replay.json" \
    || { echo "FAIL: sweep store replay is not byte-identical"; exit 1; }
port_explore "$OUTDIR/explore-replay.json" >/dev/null
cmp "$OUTDIR/explore.json" "$OUTDIR/explore-replay.json" \
    || { echo "FAIL: exploration store replay is not byte-identical"; exit 1; }
REPLAY_RUN=$(jobs_run)
[ "$REPLAY_RUN" = 0 ] \
    || { echo "FAIL: fresh process re-simulated $REPLAY_RUN points instead of replaying the store"; exit 1; }

stop_daemon
echo "mt smoke: ok (artifacts in $OUTDIR)"
