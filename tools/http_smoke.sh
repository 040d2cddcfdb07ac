#!/usr/bin/env bash
# Shared HTTP serving smoke driver for CI. One script owns the
# server-start / healthz-wait / query / drain choreography that used to be
# copy-pasted into every workflow job.
#
# Usage:
#   tools/http_smoke.sh <mode> <tdmatch_serve-binary> <snapshot.tds>
#
# Modes:
#   basic      full endpoint tour: query, batch, hot reload, metrics, and a
#              SIGTERM that must drain and exit 0; then 20 start -> healthz
#              -> immediate SIGTERM cycles, each of which must also drain
#              and exit 0 (the build-and-test leg).
#   sanitized  the lighter tour the ASan/UBSan job runs (longer healthz
#              budget: sanitized startup is slow).
#   overload   a flood against --max-inflight 2 must produce at least one
#              429 with a well-formed Retry-After while /v1/healthz stays
#              green and the /v1/metrics shed counter advances.
set -euo pipefail

mode=${1:?usage: http_smoke.sh <basic|sanitized|overload> <serve-binary> <snapshot.tds>}
serve_bin=${2:?missing tdmatch_serve binary path}
snapshot=${3:?missing snapshot path}

tmp_dir=$(mktemp -d)
pids=()
cleanup() {
  if [ "${#pids[@]}" -gt 0 ]; then
    for pid in "${pids[@]}"; do
      kill "$pid" 2>/dev/null || true
    done
  fi
  rm -rf "$tmp_dir"
}
trap cleanup EXIT

fail() {
  echo "::error::http_smoke($mode): $*" >&2
  exit 1
}

# start_server <port> [extra serve flags...] — sets `last_pid` (no command
# substitution: a $(...) subshell could not append to the pids array).
start_server() {
  local port=$1
  shift
  "$serve_bin" serve --snapshot "$snapshot" --port "$port" "$@" &
  last_pid=$!
  pids+=("$last_pid")
}

# wait_healthy <port> <tries> — polls /v1/healthz every 0.2s.
wait_healthy() {
  local port=$1 tries=$2 i
  for ((i = 0; i < tries; i++)); do
    if curl -sf "http://127.0.0.1:$port/v1/healthz" > /dev/null; then
      return 0
    fi
    sleep 0.2
  done
  fail "server on port $port never became healthy ($tries tries)"
}

# drain <pid> — SIGTERM must exit 0 (clean drain; under the sanitizers a
# leak or OOB turns this exit non-zero).
drain() {
  kill -TERM "$1"
  wait "$1"
}

post() {
  # post <port> <json-body>: echoes the response body, fails on transport
  # or non-2xx status.
  curl -sf -X POST "http://127.0.0.1:$1/v1/query" -d "$2"
}

case "$mode" in
  basic)
    port=18080
    # Full tracing so the metrics scrape below covers the trace counters
    # too; fast history sampling and a JSONL log file so the
    # continuous-observability endpoints have data to show.
    start_server "$port" --trace-sample 1 \
      --history-interval-ms 100 --log-file "$tmp_dir/serve.jsonl"
    server_pid=$last_pid
    wait_healthy "$port" 50
    post "$port" '{"label": "q:0", "k": 3}' | tee "$tmp_dir/q1.json"
    grep -q '"matches"' "$tmp_dir/q1.json"
    post "$port" '{"labels": ["q:0", "q:1"], "k": 3}' | grep -q '"results"'
    # A vector component that overflows float (inf after the cast) must be
    # rejected with 400, not answered with NaN scores.
    dim=$("$serve_bin" info --snapshot "$snapshot" \
      | sed -n 's/^ *vectors: [0-9]* *dim: \([0-9]*\)$/\1/p')
    [ -n "$dim" ] || fail "tdmatch_serve info printed no dim"
    body='{"vector": [1e400'
    for ((i = 1; i < dim; i++)); do body+=', 0'; done
    body+='], "k": 3}'
    status=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
      "http://127.0.0.1:$port/v1/query" -d "$body")
    [ "$status" = 400 ] || fail "overflowing vector got $status, want 400"
    cp "$snapshot" "$tmp_dir/reload.tds"
    curl -sf -X POST "http://127.0.0.1:$port/v1/reload" \
      -d "{\"snapshot\": \"$tmp_dir/reload.tds\"}" \
      | grep -q '"snapshot_version":2'
    post "$port" '{"label": "q:0", "k": 3}' | grep -q '"snapshot_version":2'

    # The same single-label query twice answers byte-identically.
    post "$port" '{"label": "q:1", "k": 3}' > "$tmp_dir/r1.json"
    post "$port" '{"label": "q:1", "k": 3}' > "$tmp_dir/r2.json"
    cmp -s "$tmp_dir/r1.json" "$tmp_dir/r2.json" \
      || fail "a repeated query answered differently"

    # Prometheus scrape: structurally valid exposition (python checker),
    # request/trace/reload counters advanced by the traffic above.
    curl -sf "http://127.0.0.1:$port/v1/metrics" > "$tmp_dir/metrics.txt"
    python3 "$(dirname "$0")/check_metrics.py" "$tmp_dir/metrics.txt" \
      --require tdmatch_request_latency_ms \
      --require tdmatch_request_stage_latency_ms \
      --require tdmatch_admission_admitted_total \
      --require tdmatch_snapshot_version \
      --require tdmatch_build_info \
      --min tdmatch_queries_total:6 \
      --min tdmatch_traces_total:5 \
      --min tdmatch_reloads_total:1 \
      || fail "metrics exposition check failed"

    # Metric history: a scripted burst of 8 more queries, then the
    # windowed view must show the counter's delta (the run started with a
    # pre-traffic sample, so the whole burst is visible) and internally
    # consistent delta/rate arithmetic (validated by --history).
    for i in 0 1 2 3; do
      post "$port" '{"labels": ["q:0", "q:1"], "k": 3}' > /dev/null
    done
    sleep 0.5
    curl -sf "http://127.0.0.1:$port/v1/metrics/history?window=120&series=tdmatch_queries" \
      > "$tmp_dir/history.json"
    python3 "$(dirname "$0")/check_metrics.py" "$tmp_dir/history.json" \
      --history \
      --history-require tdmatch_queries_total \
      --history-min-delta tdmatch_queries_total:8 \
      || fail "metrics history check failed"

    # SLO burn rates: clean traffic must report healthy objectives.
    curl -sf "http://127.0.0.1:$port/v1/slo" > "$tmp_dir/slo.json"
    grep -q '"degraded":false' "$tmp_dir/slo.json" \
      || fail "slo reports degraded on clean traffic"
    grep -q '"name":"availability"' "$tmp_dir/slo.json" \
      || fail "slo lacks the availability objective"
    curl -sf "http://127.0.0.1:$port/v1/healthz" | grep -q '"status":"ok"' \
      || fail "healthz lacks the ok status"

    # CPU profile under live load: the folded stacks must be non-empty
    # and name the query kernels (flamegraph.pl-ready output).
    (
      for ((i = 0; i < 400; i++)); do
        post "$port" '{"labels": ["q:0", "q:1", "q:2", "q:3"], "k": 5}' \
          > /dev/null 2>&1 || true
      done
    ) &
    load_pid=$!
    curl -sf "http://127.0.0.1:$port/v1/debug/profile?seconds=1&hz=300" \
      > "$tmp_dir/profile.folded"
    kill "$load_pid" 2>/dev/null || true
    wait "$load_pid" 2>/dev/null || true
    [ -s "$tmp_dir/profile.folded" ] \
      || fail "profile endpoint returned empty folded output"
    grep -qE 'QueryEngine|Ivf|Exact|simd|tdmatch' "$tmp_dir/profile.folded" \
      || fail "profile has no query-kernel frames"
    curl -sf "http://127.0.0.1:$port/v1/debug/profile?seconds=0.2&format=json" \
      | grep -q '"samples"' || fail "profile json format failed"

    # The --log-file sink captured the run as parseable JSONL.
    [ -s "$tmp_dir/serve.jsonl" ] || fail "--log-file produced no output"
    python3 -c "import json, sys; [json.loads(l) for l in open(sys.argv[1])]" \
      "$tmp_dir/serve.jsonl" || fail "log file lines are not valid JSON"

    drain "$server_pid"

    # Early SIGTERM: a signal that lands right after startup, while the
    # engine pool and history sampler threads are fresh, must still drain
    # (serve_drain logged) and exit 0 — never die by the signal.
    for ((cycle = 0; cycle < 20; cycle++)); do
      log="$tmp_dir/early_term.$cycle.jsonl"
      start_server "$port" --log-file "$log"
      server_pid=$last_pid
      wait_healthy "$port" 50
      drain "$server_pid" \
        || fail "early SIGTERM cycle $cycle: server did not exit 0"
      grep -q '"serve_drain"' "$log" \
        || fail "early SIGTERM cycle $cycle: no serve_drain line"
    done
    ;;

  sanitized)
    port=18081
    start_server "$port"
    server_pid=$last_pid
    wait_healthy "$port" 100
    post "$port" '{"label": "q:0", "k": 3}' | grep -q '"matches"'
    curl -sf -X POST "http://127.0.0.1:$port/v1/reload" -d '{}' \
      | grep -q '"snapshot_version":2'
    drain "$server_pid"
    ;;

  overload)
    port=18090
    start_server "$port" --max-inflight 2 --allow-delay
    server_pid=$last_pid
    wait_healthy "$port" 50

    # Flood past --max-inflight 2 with a debug delay holding each admitted
    # query in flight. At least one 429 with a well-formed Retry-After
    # must come back, health must stay green, and the shed counter must
    # advance — fail fast, never fall over.
    flood=8
    flood_pids=()
    for ((i = 0; i < flood; i++)); do
      curl -s -X POST "http://127.0.0.1:$port/v1/query" \
        -d '{"label": "q:0", "k": 3, "delay_ms": 500}' \
        -D "$tmp_dir/headers.$i" -o "$tmp_dir/body.$i" \
        -w '%{http_code}' > "$tmp_dir/status.$i" &
      flood_pids+=("$!")
    done
    # Wait for the flood only — a bare `wait` would block on the server.
    for pid in "${flood_pids[@]}"; do
      wait "$pid" || true
    done
    sheds=0
    for ((i = 0; i < flood; i++)); do
      status=$(cat "$tmp_dir/status.$i")
      case "$status" in
        200) ;;
        429)
          sheds=$((sheds + 1))
          grep -qiE '^retry-after: *[0-9]+' "$tmp_dir/headers.$i" \
            || fail "429 without a well-formed Retry-After header"
          grep -q '"retry_after_seconds"' "$tmp_dir/body.$i" \
            || fail "429 body lacks retry_after_seconds"
          ;;
        *) fail "unexpected status $status under flood (crash?)" ;;
      esac
    done
    [ "$sheds" -ge 1 ] || fail "flood of $flood produced no 429 shed"
    curl -sf "http://127.0.0.1:$port/v1/healthz" > /dev/null \
      || fail "healthz went red under overload"
    curl -sf "http://127.0.0.1:$port/v1/metrics" > "$tmp_dir/metrics.txt"
    python3 "$(dirname "$0")/check_metrics.py" "$tmp_dir/metrics.txt" \
      --min tdmatch_admission_shed_total:1 \
      || fail "metrics shed counter did not advance"

    drain "$server_pid"
    ;;

  *)
    fail "unknown mode '$mode' (expected basic|sanitized|overload)"
    ;;
esac

echo "http_smoke($mode): OK"
