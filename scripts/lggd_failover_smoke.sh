#!/usr/bin/env bash
# Coordinator-failover smoke for lggd federation — the CI gate for the
# no-SPOF contract:
#
#   1. a warm standby tails the primary: started with NO -fleet of its
#      own, it learns both workers purely by mirroring the primary's
#      /v1/coordinator/status, and refuses submissions (readyz 503);
#   2. failover: the primary is SIGKILLed mid-sweep; after
#      -failover-after without a heartbeat the standby promotes itself
#      (readyz 200, role "primary") and resumes the in-flight job;
#   3. fidelity: the job finishes on the standby and its merged journal
#      is byte-identical (cmp) to the same sweep run in-process — the
#      determinism contract survives a coordinator death, because
#      idempotency keys re-attach the surviving worker-side range jobs;
#   4. observability: the standby's metrics record exactly one failover
#      and export per-worker liveness gauges.
. "$(dirname "$0")/lib.sh"

primary=127.0.0.1:8440
standby=127.0.0.1:8441
w1=127.0.0.1:8442
w2=127.0.0.1:8443

go build -o "$dir/lggd" ./cmd/lggd
go build -o "$dir/lggsweep" ./cmd/lggsweep

# --- 1. primary + tailing standby -------------------------------------
"$dir/lggd" -addr "$w1" -state "$dir/w1" -jobs 2 -sweep-workers 1 >"$dir/w1.log" 2>&1 &
pids+=($!)
"$dir/lggd" -addr "$w2" -state "$dir/w2" -jobs 2 -sweep-workers 1 >"$dir/w2.log" 2>&1 &
pids+=($!)
wait_healthy "$w1" "worker 1"
wait_healthy "$w2" "worker 2"

# -suspect-after 5s keeps the membership (and per-worker gauge) cadence
# sub-second so the short smoke window observes a liveness export.
"$dir/lggd" -coordinator -addr "$primary" -state "$dir/primary" \
  -fleet "http://$w1,http://$w2" -range-runs 3 -lease 3s -suspect-after 5s \
  >"$dir/primary.log" 2>&1 &
primary_pid=$!
pids+=($primary_pid)
wait_healthy "$primary" "primary coordinator"

# The standby gets NO -fleet: everything it knows about the workers must
# arrive by mirroring the primary.
"$dir/lggd" -coordinator -standby -primary "http://$primary" \
  -addr "$standby" -state "$dir/standby" -range-runs 3 -lease 3s \
  -suspect-after 5s -heartbeat 300ms -failover-after 2s \
  >"$dir/standby.log" 2>&1 &
pids+=($!)
wait_healthy "$standby" "standby coordinator"

ready=$(curl -s -o /dev/null -w '%{http_code}' "http://$standby/readyz")
[ "$ready" = 503 ] || fail "standby readyz answered $ready, want 503 before promotion"
for i in $(seq 1 100); do
  n=$(curl -s "http://$standby/v1/fleet" | grep -c 'http://' || true)
  [ "$n" = 2 ] && break
  [ "$i" = 100 ] && fail "standby never mirrored the 2-worker fleet (have $n)"
  sleep 0.1
done
say "standby tailing primary, fleet mirrored (2 workers) ✓"

# --- 2+3. SIGKILL the primary mid-sweep; standby finishes the job -----
spec='-grid faults -quick -seeds 2 -horizon 150000'
# shellcheck disable=SC2086
"$dir/lggsweep" $spec -quiet -faults 'down@40-80:e=1' -out "$dir/local.jsonl"

job=$(curl -sf -X POST "http://$primary/v1/jobs" -H 'Content-Type: application/json' \
  -d '{"grid":"faults","quick":true,"seeds":2,"horizon":150000,"faults":"down@40-80:e=1"}' \
  | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$job" ] || fail "primary refused the job submission"

# Kill the primary the moment the sweep shows progress on the primary
# AND the standby has mirrored the job in a non-terminal state — killing
# any earlier risks a mirror with nothing to resume, any later risks the
# job finishing unfailed.
for i in $(seq 1 200); do
  done_runs=$(curl -s "http://$primary/v1/jobs/$job" | sed -n 's/.*"done": \([0-9]*\).*/\1/p')
  mirrored=$(curl -s "http://$standby/v1/jobs/$job" | sed -n 's/.*"status": "\([a-z]*\)".*/\1/p')
  [ -n "$done_runs" ] && [ "$done_runs" -gt 0 ] && [ "$mirrored" = running ] && break
  [ "$i" = 200 ] && fail "standby never mirrored the running job (done=$done_runs mirrored=$mirrored)"
  sleep 0.05
done
kill -9 "$primary_pid" 2>/dev/null || true
say "primary SIGKILLed at $done_runs finished runs"

for i in $(seq 1 200); do
  role=$(curl -s "http://$standby/v1/coordinator/status" | sed -n 's/.*"role": "\([a-z]*\)".*/\1/p')
  [ "$role" = primary ] && break
  [ "$i" = 200 ] && fail "standby never promoted itself (role=$role)"
  sleep 0.1
done
ready=$(curl -s -o /dev/null -w '%{http_code}' "http://$standby/readyz")
[ "$ready" = 200 ] || fail "promoted standby readyz answered $ready, want 200"
say "standby promoted to primary ✓"

for i in $(seq 1 600); do
  status=$(curl -s "http://$standby/v1/jobs/$job" | sed -n 's/.*"status": "\([a-z]*\)".*/\1/p')
  [ "$status" = done ] && break
  case "$status" in failed|cancelled) fail "resumed job ended $status";; esac
  [ "$i" = 600 ] && fail "resumed job never finished (status=$status)"
  sleep 0.1
done

curl -sf "http://$standby/v1/jobs/$job/results" -o "$dir/failover.jsonl" \
  || fail "fetching merged results from the promoted standby failed"
cmp "$dir/local.jsonl" "$dir/failover.jsonl" || fail "post-failover merged JSONL differs from the in-process JSONL"
say "post-failover output byte-identical to in-process run ($(wc -l <"$dir/local.jsonl") lines) ✓"

# --- 4. the failover and worker liveness are observable ---------------
curl -s "http://$standby/metrics" >"$dir/metrics.out"
grep -q '^lggfed_failovers_total 1$' "$dir/metrics.out" || fail "metrics do not record exactly one failover"
grep -q '^lggfed_standby 0$' "$dir/metrics.out" || fail "promoted standby still exports lggfed_standby 1"
grep -q '^lggfed_worker_state_' "$dir/metrics.out" || fail "per-worker liveness gauges missing"
say "failover + worker liveness visible in /metrics ✓"

say "all checks passed"
