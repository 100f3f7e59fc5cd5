#!/bin/sh
# smoke_sdbpd.sh — end-to-end crash-safety smoke of the sdbpd service.
#
# Builds the real binaries and drives them the way an operator would:
#
#   1. start sdbpd with a disk store;
#   2. submit a small spec twice through sdbpctl and prove the second
#      submission is answered from the result cache (via /metrics);
#      then submit Sampler and a reordered, default-written spelling of
#      its expression, which must share one address and one result;
#   3. check the observability surface: the job's trace reconciles
#      (sdbpctl trace -check), its SSE lifecycle replays in order
#      (sdbpctl watch), and /metrics serves lint-clean Prometheus text;
#   4. submit a long job, SIGTERM the daemon mid-run, and let the
#      drain store whatever finished;
#   5. restart on the same store directory and verify the small spec
#      comes back byte-identical as a cache hit, with no job run (the
#      restarted daemon lists runner_jobs_submitted at 0).
#
# Exits non-zero on the first broken promise. Needs only a Go
# toolchain and a POSIX shell.
set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() { echo "smoke_sdbpd: FAIL: $*" >&2; exit 1; }

echo "== build"
go build -o "$workdir/sdbpd" ./cmd/sdbpd
go build -o "$workdir/sdbpctl" ./cmd/sdbpctl

# start_daemon FLAGS... — boots sdbpd on a free port, sets $base and
# $daemon_pid, waits for the listening contract line.
start_daemon() {
    : > "$workdir/daemon.log"
    "$workdir/sdbpd" -addr 127.0.0.1:0 \
        -store-dir "$workdir/store" "$@" 2>"$workdir/daemon.log" &
    daemon_pid=$!
    base=""
    for _ in $(seq 1 100); do
        base=$(sed -n 's/.*listening on \(http:\/\/[^ ]*\).*/\1/p' "$workdir/daemon.log" | head -1)
        [ -n "$base" ] && break
        kill -0 "$daemon_pid" 2>/dev/null || fail "daemon died during startup: $(cat "$workdir/daemon.log")"
        sleep 0.1
    done
    [ -n "$base" ] || fail "daemon never announced its address"
}

# counter NAME — reads one counter from the /metrics snapshot without
# needing a JSON tool: the snapshot is one "name": value pair per line.
counter() {
    "$workdir/sdbpctl" metrics -server "$base" \
        | sed -n "s/^[[:space:]]*\"$1\": \([0-9][0-9]*\),*\$/\1/p" | head -1
}

small='{"policy":"LRU","workloads":["456.hmmer"],"scale":0.05}'
preset='{"policy":"Sampler","workloads":["456.hmmer"],"scale":0.05}'
spelled='{"policy":"dbrb(pred=sampler(threshold=8),base=lru)","workloads":["456.hmmer"],"scale":0.05}'
big='{"policy":"Sampler","workloads":["all"],"scale":1}'
echo "$small"   > "$workdir/small.json"
echo "$preset"  > "$workdir/preset.json"
echo "$spelled" > "$workdir/spelled.json"
echo "$big"     > "$workdir/big.json"

echo "== start sdbpd"
start_daemon

echo "== submit small spec twice: second must be a cache hit"
"$workdir/sdbpctl" submit -server "$base" -spec "$workdir/small.json" > "$workdir/small1.json" 2>/dev/null
"$workdir/sdbpctl" submit -server "$base" -spec "$workdir/small.json" > "$workdir/small2.json" 2>/dev/null
cmp -s "$workdir/small1.json" "$workdir/small2.json" || fail "resubmitted manifest differs"
hits=$(counter serve_cache_hits)
[ "${hits:-0}" -ge 1 ] || fail "serve_cache_hits = ${hits:-unset}, want >= 1"
submitted=$(counter runner_jobs_submitted)
[ "${submitted:-0}" = 1 ] || fail "runner_jobs_submitted = ${submitted:-unset}, want 1: one job for two submissions"

echo "== two spellings of Sampler: one address, second a byte-identical hit"
preset_addr=$("$workdir/sdbpctl" addr -spec "$workdir/preset.json")
spelled_addr=$("$workdir/sdbpctl" addr -spec "$workdir/spelled.json")
[ "$preset_addr" = "$spelled_addr" ] || fail "Sampler spellings got addresses $preset_addr and $spelled_addr, want one"
"$workdir/sdbpctl" submit -server "$base" -spec "$workdir/preset.json" > "$workdir/preset.out" 2>/dev/null
"$workdir/sdbpctl" submit -server "$base" -spec "$workdir/spelled.json" > "$workdir/spelled.out" 2>"$workdir/spelled.err"
cmp -s "$workdir/preset.out" "$workdir/spelled.out" || fail "spelled-out Sampler manifest differs from the preset's"
grep -q "result source: hit" "$workdir/spelled.err" || fail "spelled-out Sampler is not a cache hit: $(cat "$workdir/spelled.err")"
submitted=$(counter runner_jobs_submitted)
[ "$submitted" = 2 ] || fail "runner_jobs_submitted = ${submitted:-unset}, want 2: one job per configuration"

echo "== trace must be complete and reconcile"
addr=$("$workdir/sdbpctl" addr -spec "$workdir/small.json")
"$workdir/sdbpctl" trace -server "$base" -check "$addr" > "$workdir/trace.json" \
    || fail "job trace does not reconcile"
"$workdir/sdbpctl" trace -server "$base" -format chrome "$addr" > "$workdir/trace-chrome.json" \
    || fail "chrome trace export failed"
grep -q traceEvents "$workdir/trace-chrome.json" || fail "chrome export has no traceEvents"

echo "== SSE lifecycle must replay in order"
# The second submission was a cache hit, so the job's current feed
# holds the short cached lifecycle, in its deterministic order.
"$workdir/sdbpctl" watch -server "$base" "$addr" > "$workdir/watch.out" \
    || fail "watch did not end with the job done"
[ "$(cat "$workdir/watch.out")" = "submitted
cached
done" ] || fail "SSE lifecycle out of order: $(cat "$workdir/watch.out")"

echo "== /metrics Prometheus exposition must lint clean"
"$workdir/sdbpctl" metrics -server "$base" -format prom -lint > "$workdir/metrics.prom" \
    || fail "Prometheus exposition fails the grammar lint"
grep -q '^serve_submits_total ' "$workdir/metrics.prom" || fail "exposition missing serve_submits_total"
# The process memo (here: the small spec's filtered stream).
for series in memo_bytes memo_entries memo_evictions_total; do
    grep -q "^$series " "$workdir/metrics.prom" || fail "exposition missing $series"
done

echo "== SIGTERM mid-job, then restart"
# The big spec runs for seconds; the submit will be cut off by the
# daemon's death, which is the point.
"$workdir/sdbpctl" submit -server "$base" -spec "$workdir/big.json" >/dev/null 2>&1 &
submit_pid=$!
sleep 1
kill -TERM "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
wait "$submit_pid" 2>/dev/null || true

echo "== restart on the same store; small spec must come back as a cache hit"
start_daemon
"$workdir/sdbpctl" submit -server "$base" -spec "$workdir/small.json" > "$workdir/small3.json" 2>"$workdir/small3.err"
cmp -s "$workdir/small1.json" "$workdir/small3.json" || fail "restarted manifest differs from the original"
grep -q "result source: hit" "$workdir/small3.err" || fail "restarted answer is not a cache hit: $(cat "$workdir/small3.err")"
# The restarted daemon lists its counters at 0 before any job runs.
submitted=$(counter runner_jobs_submitted)
[ "$submitted" = 0 ] || fail "runner_jobs_submitted = ${submitted:-unset}, want present and 0: the restart re-simulated"

echo "== graceful stop"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || fail "daemon exited non-zero on graceful stop"
daemon_pid=""

echo "smoke_sdbpd: ok"
