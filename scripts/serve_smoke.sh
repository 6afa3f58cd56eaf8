#!/bin/sh
# serve_smoke.sh — end-to-end gate for the serving layer: boots ptbserve
# with a persistent store, replays N concurrent duplicate sweeps with
# ptbload, asserts single-flight dedup on the cold pass and a >=99%
# cache-hit rate on the warm pass (where the job journal may gain no
# more accept records than the pass had misses: cache hits are not
# journaled), sends single-config requests with
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
    # The readiness probe asks for a config outside ptbload's default
    # request set, so the cold pass below really starts cold.
    for _ in $(seq 1 50); do
        if "$workdir/ptbload" -addr "$ADDR" -n 1 -c 1 -benches ocean -cores 2 -techs none \
            >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "server failed to come up:"; cat "$workdir/serve.log"; exit 1
}

# load OUT ARGS... runs ptbload against the server, keeps its report in
# OUT, prints it, and stops the script if ptbload failed (a pipe into
# tee would hide its exit status).
load() {
    out="$1"; shift
    "$workdir/ptbload" -addr "$ADDR" "$@" >"$out" \
        || { cat "$out"; echo "ptbload failed"; exit 1; }
    cat "$out"
}

echo "== boot (cold store)"
boot

echo "== cold pass: $N concurrent duplicate sweeps, single-flight asserted"
load "$workdir/cold.out" -n "$N" -c "$C" -assert-single-flight

wal="$workdir/store/jobs.wal"
accepts() { grep -c '"op":"accept"' "$wal" || true; }

echo "== warm pass: >=99% cache hits asserted, journal growth bounded by misses"
wal_bytes0=$(wc -c <"$wal")
wal_accepts0=$(accepts)
load "$workdir/warm.out" -n "$N" -c "$C" -assert-hit-rate 0.99
wal_bytes1=$(wc -c <"$wal")
wal_accepts1=$(accepts)
# "configs N answered: F fresh, C coalesced, K cached, X failed"
misses=$(awk '/^configs/ { print $2 - $8 }' "$workdir/warm.out")
grown=$((wal_accepts1 - wal_accepts0))
echo "jobs.wal        $wal_bytes0 -> $wal_bytes1 bytes, $grown accept record(s) for $misses miss(es)"
if [ "$grown" -gt "$misses" ]; then
    echo "FAIL: the journal grew by $grown accept records for $misses misses (cache hits were journaled)"
    exit 1
fi

echo "== runs pass: single-config requests, digests compared per config"
load "$workdir/runs.out" -mode runs -n "$N" -c "$C"

echo "== graceful shutdown (SIGTERM drain + store flush)"
kill -TERM "$server_pid"
wait "$server_pid" || { echo "server exited non-zero:"; cat "$workdir/serve.log"; exit 1; }
grep -q "drained cleanly" "$workdir/serve.log"

echo "== reboot on the same store"
boot
grep -q "results loaded" "$workdir/serve.log"

echo "== restarted pass: served from the persistent cache"
load "$workdir/restart.out" -n "$N" -c "$C" -assert-hit-rate 0.99

echo "== digest identity across restart"
grep '^digest' "$workdir/cold.out" >"$workdir/cold.digests"
grep '^digest' "$workdir/restart.out" >"$workdir/restart.digests"
diff "$workdir/cold.digests" "$workdir/restart.digests"

echo "serve-smoke: PASS"
