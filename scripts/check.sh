#!/usr/bin/env bash
# check.sh — the pre-PR gate for this repo. Everything here must pass
# before a change merges:
#
#   1. go build      — compile everything first; nothing else is
#                      meaningful on a broken tree
#   2. go vet        — the stock correctness screens
#   3. pdsplint      — this repo's own static guarantees: the v2
#                      whole-program pass (ctx-propagation, lock-order,
#                      lease-linearity, chan-discipline) plus the
#                      original per-package rules; see DESIGN.md
#                      "Static guarantees". Emits lint_report.json as a
#                      machine-readable gate artifact.
#   4. go test -race -short — every package under the race detector,
#                      including the fabric's queue/server protocol
#                      tests and the goroutine-leak TestMain gates.
#                      -short skips only the single-threaded ML/shape
#                      grinds (no concurrency to race, ~10x slower under
#                      the detector).
#   5. go test       — the full suite, race detector off, so the slow
#                      shape tests still gate the merge
#   6. fuzz smoke    — seconds per target to keep the harnesses honest
#   7. bench compare — scripts/bench.sh --compare gates >10% throughput
#                      regressions between the two newest same-machine
#                      BENCH_*.json recordings
#   8. fabric smoke  — the distributed fabric through the built binary
#   9. storm smoke   — a short seeded storm against a self-hosted
#                      dispatcher: zero unexplained 5xx, per-tenant
#                      fairness within tolerance
#
# Usage:
#   scripts/check.sh           # the full gate
#   scripts/check.sh --quick   # fail-fast inner loop: build + vet + pdsplint
#   BENCH=1 scripts/check.sh   # full gate + substrate micro-benchmarks
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
#      the row plane's Eval.
fuzz_smoke() {
  go test -run '^$' -fuzz '^FuzzValueHash$' -fuzztime 2s ./internal/tuple
  go test -run '^$' -fuzz '^FuzzSplitterColumnsMatchRows$' -fuzztime 2s ./internal/apps
  go test -run '^$' -fuzz '^FuzzPlanRoundTrip$' -fuzztime 2s ./internal/core
  go test -run '^$' -fuzz '^FuzzLintLoader$' -fuzztime 2s ./internal/lint
  go test -run '^$' -fuzz '^FuzzRunsListingMatchesLoad$' -fuzztime 2s ./internal/server
  go test -run '^$' -fuzz '^FuzzColumnarKernelEquivalence$' -fuzztime 2s ./internal/core
}
stage "fuzz smoke (2s per target)" fuzz_smoke

#   7. bench compare — throughput regression smoke over the recorded
#      trajectory. Needs two BENCH_*.json files from the same machine to
#      mean anything; with fewer than two it reports and passes.
stage "bench.sh --compare" scripts/bench.sh --compare

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
#      anything else under load is a defect. --out - keeps the gate
#      from minting BENCH_<n>.json entries.
storm_smoke() {
  go run ./cmd/pdspbench storm \
    --seed 7 --duration 2s --max 400 --smoke --fair-tol 0.25 --out -
}
stage "storm smoke (seeded saturation, fairness gate)" storm_smoke

#  10. (opt-in) substrate micro-benchmarks — set BENCH=1 to run
#      scripts/bench.sh after the gates and record a BENCH_<n>.json
#      entry in the performance trajectory. Not part of the default
#      gate: benchmark numbers are machine-dependent and noisy on
#      shared CI hosts, so recording them is a deliberate act.
if [ "${BENCH:-0}" = "1" ]; then
  stage "scripts/bench.sh (BENCH=1)" scripts/bench.sh
fi

echo "check.sh: all gates passed"
