#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests.
#
#   scripts/check.sh          # run everything
#   scripts/check.sh --fast   # skip the test suite (format + lints only)
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        *) echo "usage: scripts/check.sh [--fast]" >&2; exit 2 ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The public API is documented or the build fails: accordion-pool,
# accordion-telemetry and accordion-served carry deny(missing_docs),
# and rustdoc warnings (broken links, ambiguous references) are errors.
echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

# The regression gate's own plumbing: a clean replay of the committed
# baseline must pass, and a synthetic 2x slowdown must be rejected —
# otherwise the gate below could be silently waving everything through.
echo "==> bench regression gate self-test"
scripts/bench.sh --check --dry-run > /dev/null
if ACCORDION_BENCH_INJECT_SCALE=2 scripts/bench.sh --check --dry-run > /dev/null 2>&1; then
    echo "FAIL: bench gate accepted a synthetic 2x slowdown" >&2
    exit 1
fi

if [ "$fast" -eq 0 ]; then
    echo "==> scripts/bench.sh --check"
    scripts/bench.sh --check
    # The gate compares against the committed baseline and must never
    # rewrite it.
    git diff --exit-code -- 'BENCH_*.json'

    # Flight-recorder smoke: profile one artifact, then prove the
    # emitted Chrome trace parses with the crate's own JSON parser
    # (`repro validate-trace` is telemetry::json::parse + invariants).
    echo "==> repro profile smoke + chrome-trace round-trip"
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
    cargo run --release -q -p accordion-bench --bin repro -- \
        profile headline --chips 2 --chrome-trace "$smoke_dir/trace.json" > /dev/null
    cargo run --release -q -p accordion-bench --bin repro -- \
        validate-trace "$smoke_dir/trace.json"

    # Manifest smoke: the run manifest dumps the registry's gathered
    # families (the walk `/metrics` renders) under schema 3.
    echo "==> repro tab1 --manifest smoke"
    cargo run --release -q -p accordion-bench --bin repro -- \
        tab1 --manifest "$smoke_dir/manifest.json" > /dev/null
    grep -q '"schema": "accordion.run-manifest/3"' "$smoke_dir/manifest.json"
    grep -q '"pool_tasks_total"' "$smoke_dir/manifest.json"

    # Span-sink smoke: the JSONL sink carries span boundaries only;
    # structured events belong to the flight recorder.
    echo "==> repro tab1 --trace-json smoke"
    cargo run --release -q -p accordion-bench --bin repro -- \
        tab1 --trace-json "$smoke_dir/trace.jsonl" > /dev/null
    grep -q '"kind":"span_end","level":"info","name":"bench.artifact.tab1"' \
        "$smoke_dir/trace.jsonl"
    if grep -q '"kind":"event"' "$smoke_dir/trace.jsonl"; then
        echo "FAIL: the span sink carried a point event" >&2
        exit 1
    fi

    # Service smoke: boot `repro serve` on a fixed local port, hit the
    # health and simulate endpoints, then stop it cooperatively. Proves
    # the binary wiring (artifact source, shutdown path), not just the
    # library the e2e tests cover.
    echo "==> repro serve smoke"
    serve_port=18471
    cargo run --release -q -p accordion-bench --bin repro -- \
        serve --addr "127.0.0.1:$serve_port" --threads 2 \
        --alerts configs/alerts.toml --scrape-interval 200 \
        < /dev/null > "$smoke_dir/serve.log" 2>&1 &
    serve_pid=$!
    for _ in $(seq 1 50); do
        curl -sf "http://127.0.0.1:$serve_port/healthz" > /dev/null 2>&1 && break
        sleep 0.2
    done
    curl -sf "http://127.0.0.1:$serve_port/healthz" | grep -q '"status":"ok"'
    curl -sf -X POST "http://127.0.0.1:$serve_port/v1/simulate" \
        -d '{"app":"hotspot","topo":"small","chips":2}' \
        | grep -q '"f_run_ghz"'
    # The one-chip path: the last chip of the largest population, on
    # the paper topology, fabricated alone.
    curl -sf -X POST "http://127.0.0.1:$serve_port/v1/simulate" \
        -d '{"app":"hotspot","topo":"default","chips":100,"chip":99}' \
        | grep -q '"f_run_ghz"'

    # Optimizer e2e: a small fixed-seed search through the live server
    # must come back with a non-empty Pareto front and the winning
    # point, proving the route, engine plumbing and coalescing memo.
    echo "==> POST /v1/optimize e2e smoke"
    curl -sf -X POST "http://127.0.0.1:$serve_port/v1/optimize" \
        -d '{"app":"hotspot","topo":"small","chips":2,"population":8,"generations":2,"scout_steps":2}' \
        > "$smoke_dir/optimize.json"
    grep -q '"front"' "$smoke_dir/optimize.json"
    grep -q '"best"' "$smoke_dir/optimize.json"

    # Exposition lint: the live /metrics document must conform to the
    # Prometheus text format (TYPE/HELP placement, label escaping,
    # histogram bucket monotonicity) per the crate's own linter.
    echo "==> repro validate-metrics (live exposition lint)"
    cargo run --release -q -p accordion-bench --bin repro -- \
        validate-metrics "127.0.0.1:$serve_port"

    # Ops-plane smoke: one dashboard frame against the live server
    # must render the panels and the configured alert rules — proves
    # the self-scrape loop, both /v1 endpoints, and the dash renderer
    # end to end.
    echo "==> repro dash --once (ops-plane smoke)"
    cargo run --release -q -p accordion-bench --bin repro -- \
        dash --once --addr "127.0.0.1:$serve_port" > "$smoke_dir/dash.txt"
    grep -q "accordion dash" "$smoke_dir/dash.txt"
    grep -q "ok-p99-latency" "$smoke_dir/dash.txt"
    grep -q "chip miss" "$smoke_dir/dash.txt"

    curl -sf -X POST "http://127.0.0.1:$serve_port/v1/shutdown" > /dev/null
    wait "$serve_pid"
    grep -q "accordion-served stopped" "$smoke_dir/serve.log"

    # Optimizer CLI smoke: a tiny fixed-seed search must finish fast,
    # beat (or tie) its own scout grid, and render the report sections
    # the docs promise.
    echo "==> repro optimize smoke (2 generations, grid cross-check)"
    cargo run --release -q -p accordion-bench --bin repro -- \
        optimize --app hotspot --topo small --chips 2 --population 8 \
        --generations 2 --scout-steps 2 --grid-check 2 \
        --json "$smoke_dir/optimize-cli.json" 2> /dev/null
    grep -q '"dominated": true' "$smoke_dir/optimize-cli.json"
    grep -q '"front"' "$smoke_dir/optimize-cli.json"

    # The paper topology's request shape (6 cluster steps, 18 iso
    # bisections over the pool) must render the same report bytes on
    # one worker and on eight.
    echo "==> repro optimize --jobs 1 vs --jobs 8 (paper topology)"
    for jobs in 1 8; do
        cargo run --release -q -p accordion-bench --bin repro -- \
            optimize --app canneal --topo default --chips 8 --chip 3 \
            --population 8 --generations 2 --grid-check 3 --jobs "$jobs" \
            --json "$smoke_dir/optimize-jobs$jobs.json" 2> /dev/null
    done
    cmp "$smoke_dir/optimize-jobs1.json" "$smoke_dir/optimize-jobs8.json"

    # Alert-rule lint: the shipped example rules must parse with the
    # server's own parser (`repro serve --alerts` would reject what
    # this rejects).
    echo "==> repro validate-alerts configs/alerts.toml"
    cargo run --release -q -p accordion-bench --bin repro -- \
        validate-alerts configs/alerts.toml

    # Loadtest smoke: a two-second closed-loop run against an
    # in-process ephemeral-port server must complete requests and emit
    # the JSON fields the bench gate consumes.
    echo "==> repro loadtest smoke"
    cargo run --release -q -p accordion-bench --bin repro -- \
        loadtest --duration 2 --warmup 0.5 --connections 2 \
        --json "$smoke_dir/loadtest.json" > /dev/null
    grep -q '"ns_per_req"' "$smoke_dir/loadtest.json"
    grep -q '"p99"' "$smoke_dir/loadtest.json"

    # Keep-alive loadtest smoke: the persistent-connection client must
    # drive the same mix over pipelined keep-alive sockets and stamp
    # the connection model into its report.
    echo "==> repro loadtest --keepalive smoke"
    cargo run --release -q -p accordion-bench --bin repro -- \
        loadtest --duration 2 --warmup 0.5 --connections 2 \
        --keepalive --pipeline 4 \
        --json "$smoke_dir/loadtest-ka.json" > /dev/null
    grep -q '"keepalive": *true' "$smoke_dir/loadtest-ka.json"
    grep -q '"pipeline": *4' "$smoke_dir/loadtest-ka.json"
    grep -q '"ns_per_req"' "$smoke_dir/loadtest-ka.json"
fi

if [ "$fast" -eq 0 ]; then
    # Protocol torture suite, on its own so a parser or conformance
    # break reads as such (the full workspace run below repeats them):
    # split-anywhere/garbage property tests, keep-alive + pipelining
    # conformance, slow-client eviction, and coalescing determinism.
    echo "==> protocol torture suite (http_props + serve + coalesce)"
    cargo test -q -p accordion-served --test http_props
    cargo test -q --test serve --test coalesce
fi

if [ "$fast" -eq 0 ]; then
    # Two passes pin the determinism contract of accordion-pool: the
    # whole workspace suite (every crate's tests, golden snapshots
    # included) must pass with the sequential path and with a saturated
    # worker pool producing identical bytes.
    echo "==> ACCORDION_JOBS=1 cargo test -q --workspace"
    ACCORDION_JOBS=1 cargo test -q --workspace
    echo "==> ACCORDION_JOBS=8 cargo test -q --workspace"
    ACCORDION_JOBS=8 cargo test -q --workspace
fi

echo "All checks passed."
