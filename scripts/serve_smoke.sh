#!/bin/sh
# serve_smoke.sh — end-to-end gate for the serving layer: boots ptbserve
# with a persistent store, replays N concurrent duplicate sweeps with
# ptbload, asserts single-flight dedup on the cold pass and a >=99%
# cache-hit rate on the warm pass, sends single-config requests with
# `ptbload -mode runs` (digests compared per config), then SIGTERMs the
# server (graceful drain), reboots it on the same store, and demands
# byte-identical digests from the persisted cache. Used by
# `make serve-smoke` and CI's serve-e2e job.
set -eu

ADDR="${PTBSERVE_ADDR:-127.0.0.1:18177}"
SCALE="${PTBSERVE_SCALE:-0.05}"
N="${PTBLOAD_N:-200}"
C="${PTBLOAD_C:-32}"

workdir="$(mktemp -d)"
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "== building binaries"
go build -o "$workdir/ptbserve" ./cmd/ptbserve
go build -o "$workdir/ptbload" ./cmd/ptbload

boot() {
    "$workdir/ptbserve" -addr "$ADDR" -store "$workdir/store" -scale "$SCALE" \
        >"$workdir/serve.log" 2>&1 &
    server_pid=$!
    for _ in $(seq 1 50); do
        if "$workdir/ptbload" -addr "$ADDR" -n 1 -c 1 >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "server failed to come up:"; cat "$workdir/serve.log"; exit 1
}

echo "== boot (cold store)"
boot

echo "== cold pass: $N concurrent duplicate sweeps, single-flight asserted"
"$workdir/ptbload" -addr "$ADDR" -n "$N" -c "$C" -assert-single-flight \
    | tee "$workdir/cold.out"

echo "== warm pass: >=99% cache hits asserted"
"$workdir/ptbload" -addr "$ADDR" -n "$N" -c "$C" -assert-hit-rate 0.99 \
    | tee "$workdir/warm.out"

echo "== runs pass: single-config requests, digests compared per config"
"$workdir/ptbload" -addr "$ADDR" -mode runs -n "$N" -c "$C" >"$workdir/runs.out" \
    || { cat "$workdir/runs.out"; echo "runs pass failed"; exit 1; }
cat "$workdir/runs.out"

echo "== graceful shutdown (SIGTERM drain + store flush)"
kill -TERM "$server_pid"
wait "$server_pid" || { echo "server exited non-zero:"; cat "$workdir/serve.log"; exit 1; }
grep -q "drained cleanly" "$workdir/serve.log"

echo "== reboot on the same store"
boot
grep -q "results loaded" "$workdir/serve.log"

echo "== restarted pass: served from the persistent cache"
"$workdir/ptbload" -addr "$ADDR" -n "$N" -c "$C" -assert-hit-rate 0.99 \
    | tee "$workdir/restart.out"

echo "== digest identity across restart"
grep '^digest' "$workdir/cold.out" >"$workdir/cold.digests"
grep '^digest' "$workdir/restart.out" >"$workdir/restart.digests"
diff "$workdir/cold.digests" "$workdir/restart.digests"

echo "serve-smoke: PASS"
