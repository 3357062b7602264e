#!/usr/bin/env bash
# check.sh — the pre-PR gate for this repo. Everything here must pass
# before a change merges, and every stage can fail:
#
#   1. go build      — compile everything first; nothing else is
#                      meaningful on a broken tree
#   2. go vet        — the stock correctness screens
#   3. pdsplint      — this repo's own static guarantees (DESIGN.md
#                      "Static guarantees"); emits lint_report.json as a
#                      machine-readable gate artifact. Ten rules, each
#                      one invariant over its directories:
#        api-boundary        whole module: server, controller and CLI
#                            reach the engines only through
#                            internal/backend; only internal/backend
#                            imports both engines; only server,
#                            controller and cmd/pdspbench import
#                            internal/queue
#        chan-discipline     internal/{engine,queue,server,storage,storm},
#                            cmd: every go statement is WaitGroup-tracked
#                            and has a way out of an unbounded loop; only
#                            a channel's owner closes it; no send after
#                            close on a path
#        ctx-propagation     internal/{queue,server,storage,storm}, cmd:
#                            blocking code reachable from an entry point
#                            takes a context.Context; no
#                            context.Background/TODO below the entry layer
#        error-discipline    whole module except package main: no call
#                            statement drops an error result
#        hotpath-alloc       internal/{engine,des,simengine,tuple,core,
#                            stream}: no per-call allocators on the data
#                            plane; no fmt or row boxing in kernel loops
#        lease-linearity     internal/{queue,server}, cmd: a lease token
#                            is dead after Complete/Fail and is never
#                            stored where it outlives the lease
#        lock-order          whole module: no lock copied by value, every
#                            Lock has its Unlock, acquisition order is
#                            acyclic, nothing is locked under Store.mu
#        metric-label-consistency
#                            whole module: figure IDs come from the
#                            internal/metrics registry
#        recover-discipline  internal/{engine,simengine,des,backend,
#                            chaos}: recover() re-panics or becomes a
#                            typed error
#        sim-determinism     internal/{des,simengine,workload,stream}: no
#                            wall clock, no global rand, no map order in
#                            returned slices
#   4. go test -race -short — every package under the race detector,
#                      including the fabric's queue/server protocol
#                      tests and the goroutine-leak TestMain gates.
#                      -short skips only the single-threaded ML/shape
#                      grinds (no concurrency to race, ~10x slower under
#                      the detector).
#   5. go test       — the full suite, race detector off, so the slow
#                      shape tests still gate the merge
#   6. fuzz smoke    — seconds per target to keep the harnesses honest
#   7. perfbench smoke — the replay, campaign and serve workloads for
#                      2 s each, built from this checkout; a run whose
#                      output checks fail exits non-zero
#   8. fabric smoke  — the distributed fabric through the built binary
#   9. storm smoke   — a short seeded storm against a self-hosted
#                      dispatcher: zero unexplained 5xx, per-tenant
#                      fairness within tolerance
#
# Usage:
#   scripts/check.sh           # the full gate
#   scripts/check.sh --quick   # fail-fast inner loop: build + vet + pdsplint
#
# Every stage prints its wall time so gate latency regressions (the lint
# budget is ~10s) are visible in CI logs, not just felt locally.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "check.sh: unknown argument: $arg (supported: --quick)" >&2; exit 2 ;;
  esac
done

# stage <name> <cmd...> — run a gate stage and print its wall time.
stage() {
  local name="$1"; shift
  echo "== $name"
  local t0 t1
  t0=$(date +%s.%N)
  "$@"
  t1=$(date +%s.%N)
  awk -v n="$name" -v a="$t0" -v b="$t1" 'BEGIN { printf "-- %s: %.1fs\n", n, b - a }'
}

stage "go build ./..." go build ./...

stage "go vet ./..." go vet ./...

# pdsplint writes its JSON report even on failure so CI can archive the
# findings; on a clean run the artifact records the timings instead.
pdsplint_json() {
  if ! go run ./cmd/pdsplint -json ./... > lint_report.json; then
    echo "pdsplint findings (from lint_report.json):" >&2
    cat lint_report.json >&2
    return 1
  fi
}
stage "pdsplint ./... (-> lint_report.json)" pdsplint_json

if [ "$QUICK" = "1" ]; then
  echo "check.sh: quick gates passed (build + vet + pdsplint)"
  exit 0
fi

stage "go test -race -short ./..." go test -race -short ./...

stage "go test ./..." go test ./...

#   6. fuzz smoke — a couple of seconds per target keeps the harnesses
#      honest (a bit-rotted fuzz target fails here, not in a long
#      nightly run). Real exploration happens off the gate with longer
#      -fuzztime budgets. FuzzLintLoader drives malformed source through
#      the whole type-aware lint pipeline: it must diagnose, never panic.
#      FuzzSplitterColumnsMatchRows holds WordCount's splitter to one
#      output on its row and column paths. FuzzRunsListingMatchesLoad
#      holds GET /api/runs, which copies stored lines, to the bytes of
#      re-encoding what Load decodes, or to Load's 500.
#      FuzzColumnarKernelEquivalence holds the columnar filter kernels to
#      the row plane's Eval. FuzzQueueTransitions decodes bytes into
#      enqueue, lease, extend, complete, fail, clock, heartbeat and
#      restart steps and holds the fabric queue's pending and leased
#      indexes, its counters and its FIFO lease order to a recount of
#      the job listing after every step.
fuzz_smoke() {
  go test -run '^$' -fuzz '^FuzzValueHash$' -fuzztime 2s ./internal/tuple
  go test -run '^$' -fuzz '^FuzzSplitterColumnsMatchRows$' -fuzztime 2s ./internal/apps
  go test -run '^$' -fuzz '^FuzzPlanRoundTrip$' -fuzztime 2s ./internal/core
  go test -run '^$' -fuzz '^FuzzLintLoader$' -fuzztime 2s ./internal/lint
  go test -run '^$' -fuzz '^FuzzRunsListingMatchesLoad$' -fuzztime 2s ./internal/server
  go test -run '^$' -fuzz '^FuzzColumnarKernelEquivalence$' -fuzztime 2s ./internal/core
  go test -run '^$' -fuzz '^FuzzQueueTransitions$' -fuzztime 2s ./internal/queue
}
stage "fuzz smoke (2s per target)" fuzz_smoke

#   7. perfbench smoke — perfbench is the repo's benchmark (see
#      perfbench/README.md); a short run of each workload checks that it
#      still builds from this checkout and that its output checks pass.
#      Build output and temporary stores go to .bench_build/.
perfbench_smoke() {
  local w
  for w in replay campaign serve; do
    bash perfbench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0 > /dev/null
  done
}
stage "perfbench smoke (replay, campaign, serve; 2s each)" perfbench_smoke

#   8. fabric smoke — the distributed campaign fabric exercised through
#      the built binary: a dispatcher process, an HTTP-enqueued sharded
#      campaign, two worker daemons draining it. Catches CLI wiring and
#      flag regressions the in-process tests cannot see.
stage "scripts/fabric_smoke.sh" scripts/fabric_smoke.sh

#   9. storm smoke — the serving front door under a short, seeded
#      mixed-tenant saturation storm (self-hosted dispatcher, sim
#      fidelity shrunk). --smoke fails the stage on any 5xx that is not
#      a deliberate shed, on transport errors, and on per-tenant OK
#      spread beyond --fair-tol: 429/503 are the front door working,
#      anything else under load is a defect.
storm_smoke() {
  go run ./cmd/pdspbench storm \
    --seed 7 --duration 2s --max 400 --smoke --fair-tol 0.25
}
stage "storm smoke (seeded saturation, fairness gate)" storm_smoke

echo "check.sh: all gates passed"
