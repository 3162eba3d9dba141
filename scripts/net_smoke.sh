#!/usr/bin/env bash
# Multi-process loopback smoke test of the zkspeed CLI + TCP transport:
# one `zkspeed serve` process (tracing on), two concurrent `zkspeed submit`
# client processes, proofs verified offline against the same circuit, the
# span trace pulled live with `zkspeed trace`, metrics scraped over the
# wire, then a graceful wire-requested shutdown. Before that, `serve` must
# refuse a flag it does not know without binding or writing its ready file.
#
# Usage: scripts/net_smoke.sh [workdir]   (default: a fresh temp dir)
# Leaves scraped-metrics.json, final-metrics.json, trace.json and
# final-trace.json in the workdir.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKDIR="${1:-$(mktemp -d /tmp/zkspeed-net-smoke.XXXXXX)}"
mkdir -p "${WORKDIR}"
TOKEN="net-smoke-token"

echo ">> building the zkspeed binary"
cargo build --release --offline --bin zkspeed
ZK=target/release/zkspeed

echo ">> offline artifacts into ${WORKDIR}"
"${ZK}" setup --mu 8 --out "${WORKDIR}/srs.bin" --seed 1
"${ZK}" compile --workload state-transition --transfers 2 --balance-bits 8 \
  --out "${WORKDIR}/circuit.bin" --witness-out "${WORKDIR}/witness.bin" --seed 2

echo ">> serve rejects an unknown flag before it binds"
SERVE_RC=0
"${ZK}" serve --srs "${WORKDIR}/srs.bin" --addr 127.0.0.1:0 \
  --ready-file "${WORKDIR}/addr-rejected.txt" --proof-cache-bytes 1 \
  >"${WORKDIR}/serve-rejected.log" 2>&1 || SERVE_RC=$?
if [ "${SERVE_RC}" -eq 0 ]; then
  echo "!! serve accepted an unknown flag"
  exit 1
fi
grep -q "unknown flag" "${WORKDIR}/serve-rejected.log"
test ! -e "${WORKDIR}/addr-rejected.txt"

echo ">> starting zkspeed serve on an ephemeral port (tracing enabled)"
"${ZK}" serve --srs "${WORKDIR}/srs.bin" --addr 127.0.0.1:0 \
  --auth-token "${TOKEN}" --ready-file "${WORKDIR}/addr.txt" \
  --metrics-out "${WORKDIR}/final-metrics.json" \
  --trace --trace-out "${WORKDIR}/final-trace.json" >"${WORKDIR}/serve.log" 2>&1 &
SERVE_PID=$!
trap 'kill "${SERVE_PID}" 2>/dev/null || true' EXIT

for _ in $(seq 1 100); do
  [ -f "${WORKDIR}/addr.txt" ] && break
  sleep 0.1
done
ADDR="$(cat "${WORKDIR}/addr.txt")"
echo ">> server ready at ${ADDR}"

echo ">> two concurrent submit clients"
"${ZK}" submit --addr "${ADDR}" --auth-token "${TOKEN}" \
  --circuit "${WORKDIR}/circuit.bin" --witness "${WORKDIR}/witness.bin" \
  --jobs 2 --proof-out "${WORKDIR}/net-proof.bin" >"${WORKDIR}/client-a.log" 2>&1 &
CLIENT_A=$!
"${ZK}" submit --addr "${ADDR}" --auth-token "${TOKEN}" \
  --circuit "${WORKDIR}/circuit.bin" --witness "${WORKDIR}/witness.bin" \
  --jobs 2 --priority high >"${WORKDIR}/client-b.log" 2>&1 &
CLIENT_B=$!
wait "${CLIENT_A}" "${CLIENT_B}"

echo ">> verifying a proof fetched over TCP"
"${ZK}" verify --srs "${WORKDIR}/srs.bin" --circuit "${WORKDIR}/circuit.bin" \
  --proof "${WORKDIR}/net-proof.bin"

echo ">> pulling the span trace over the wire"
"${ZK}" trace --addr "${ADDR}" --auth-token "${TOKEN}" --out "${WORKDIR}/trace.json"
grep -q '"traceEvents"' "${WORKDIR}/trace.json"
grep -q '"wave"' "${WORKDIR}/trace.json"
grep -q '"queue-wait"' "${WORKDIR}/trace.json"
grep -q '"prove"' "${WORKDIR}/trace.json"

echo ">> scraping metrics over the wire, then graceful shutdown"
"${ZK}" submit --addr "${ADDR}" --auth-token "${TOKEN}" \
  --metrics --metrics-out "${WORKDIR}/scraped-metrics.json" --shutdown
wait "${SERVE_PID}"
trap - EXIT

echo ">> checking the scraped metrics report the jobs"
grep -q '"completed": 4' "${WORKDIR}/scraped-metrics.json"
grep -q '"connections"' "${WORKDIR}/scraped-metrics.json"
grep -q '"supervision"' "${WORKDIR}/scraped-metrics.json"
grep -q '"phases"' "${WORKDIR}/scraped-metrics.json"
grep -q '"wait_ms"' "${WORKDIR}/scraped-metrics.json"
test -f "${WORKDIR}/final-metrics.json"
test -s "${WORKDIR}/final-trace.json"
grep -q '"traceEvents"' "${WORKDIR}/final-trace.json"

echo ">> crash-recovery leg: SIGKILL the server mid-submit"
# A fault-injected serve (every wave on shard 0 sleeps 5 s, exercising the
# ZKSPEED_FAULTS env gate) is killed while a client waits on its proof. The
# client must exit nonzero with a transport error — promptly, not hang.
ZKSPEED_FAULTS="shard-delay=0:5000" \
  "${ZK}" serve --srs "${WORKDIR}/srs.bin" --addr 127.0.0.1:0 \
  --auth-token "${TOKEN}" --ready-file "${WORKDIR}/addr2.txt" --shards 1 \
  >"${WORKDIR}/serve-crash.log" 2>&1 &
CRASH_PID=$!
trap 'kill -9 "${CRASH_PID}" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  [ -f "${WORKDIR}/addr2.txt" ] && break
  sleep 0.1
done
ADDR2="$(cat "${WORKDIR}/addr2.txt")"
echo ">> crash server ready at ${ADDR2}"

"${ZK}" submit --addr "${ADDR2}" --auth-token "${TOKEN}" \
  --circuit "${WORKDIR}/circuit.bin" --witness "${WORKDIR}/witness.bin" \
  --jobs 1 --wait-ms 60000 >"${WORKDIR}/client-crash.log" 2>&1 &
CLIENT_CRASH=$!
sleep 2   # let the client register + submit; the wave is stuck in its delay
kill -9 "${CRASH_PID}"
trap - EXIT

# `wait` surfaces the client's exit code; the timeout guard turns a hung
# client into a test failure instead of a wedged CI job.
CLIENT_RC=0
for _ in $(seq 1 300); do
  kill -0 "${CLIENT_CRASH}" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "${CLIENT_CRASH}" 2>/dev/null; then
  kill -9 "${CLIENT_CRASH}" 2>/dev/null || true
  echo "!! client hung after server SIGKILL"
  exit 1
fi
wait "${CLIENT_CRASH}" || CLIENT_RC=$?
if [ "${CLIENT_RC}" -eq 0 ]; then
  echo "!! client reported success against a SIGKILLed server"
  exit 1
fi
grep -qi "failed" "${WORKDIR}/client-crash.log"
echo ">> client exited rc=${CLIENT_RC} with a transport error, as expected"

echo ">> net smoke OK (artifacts in ${WORKDIR})"
