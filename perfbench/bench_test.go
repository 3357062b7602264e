package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"pdspbench/internal/metrics"
	"pdspbench/internal/ml"
	"pdspbench/internal/tuple"
)

// small runs a workload on a few percent of its input for a fraction of
// a second.
func small(t *testing.T, trace bool) config {
	t.Helper()
	return config{seed: 7, seconds: 0.3, trace: trace, scale: 0.02, workDir: t.TempDir()}
}

func TestEveryWorkloadPassesOnSmallInput(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				cfg := small(t, trace)
				out, err := workloads[name](context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(out.problems) > 0 || out.failed != 0 {
					t.Fatalf("checks failed: %v (failed=%d)", out.problems, out.failed)
				}
				res, err := buildResult(out, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				if !trace {
					for _, m := range endToEnd {
						if v := res.Metrics[m.name].Value; v <= 0 || math.IsNaN(v) {
							t.Errorf("%s = %v, want a positive number", m.name, v)
						}
					}
				}
				if entries, _ := os.ReadDir(cfg.tmpDir()); len(entries) != 0 {
					t.Errorf("temporary stores left behind: %v", entries)
				}
			})
		}
	}
}

// dropOne is a planted defect: a source that silently loses one sentence.
type dropOne struct {
	src *replaySource
	at  int
}

func (d *dropOne) Next() (*tuple.Tuple, bool) {
	t, ok := d.src.Next()
	if ok && d.src.i-1 == d.at {
		return d.src.Next()
	}
	return t, ok
}

func TestWordCountCheckCatchesADroppedSentence(t *testing.T) {
	a := buildArena(3, 2000)
	src := &replaySource{a: a, n: a.len()}
	sink := newWCSink()
	p, err := runWC(context.Background(), &dropOne{src: src, at: 17}, sink, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := newOutcome()
	checkWC(out, p, src, sink, a.wordCounts(a.len()))
	joined := strings.Join(out.problems, "\n")
	if !strings.Contains(joined, "ingested") || !strings.Contains(joined, "counted") {
		t.Fatalf("want the ingest and word-count checks to fire, got %q", joined)
	}
	if out.failed == 0 {
		t.Fatal("a failed check must count as a failed operation")
	}
}

func TestWordCountCheckCatchesALostWindow(t *testing.T) {
	a := buildArena(3, 2000)
	src := &replaySource{a: a, n: a.len()}
	sink := newWCSink()
	p, err := runWC(context.Background(), src, sink, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := newOutcome()
	want := a.wordCounts(a.len())
	checkWC(out, p, src, sink, want)
	if len(out.problems) != 0 {
		t.Fatalf("clean run failed: %v", out.problems)
	}
	sink.counts["w042"] -= 100 // one count window's output went missing
	checkWC(out, p, src, sink, want)
	if len(out.problems) != 1 || !strings.Contains(out.problems[0], `"w042"`) {
		t.Fatalf("want exactly the w042 miscount, got %v", out.problems)
	}
	sink.counts["w042"] += 100

	// The engine reporting dropped or panicked work fails the run even
	// when the counts add up.
	for _, plant := range []func(){func() { p.rep.LateDrops = 2 }, func() { p.rep.LateDrops, p.rep.UDOPanics = 0, 1 }} {
		plant()
		out = newOutcome()
		checkWC(out, p, src, sink, want)
		if len(out.problems) != 1 || !strings.Contains(out.problems[0], "late drops") {
			t.Fatalf("want the late-drop/UDO-panic check to fire, got %v", out.problems)
		}
	}
}

func TestWordCountsCycleThroughTheArena(t *testing.T) {
	a := buildArena(5, 10)
	once := a.wordCounts(10)
	twiceAndThree := a.wordCounts(23)
	three := a.wordCounts(3)
	for w, n := range twiceAndThree {
		if n != 2*once[w]+three[w] {
			t.Fatalf("word %s: %d, want %d", w, n, 2*once[w]+three[w])
		}
	}
}

func TestCampaignChecksFire(t *testing.T) {
	out := newOutcome()
	checkFinite(out, "GNN", []float64{1.2, math.Inf(1)})
	checkFinite(out, "MLP", []float64{1.1, math.NaN()})
	if len(out.problems) != 2 {
		t.Fatalf("non-finite q-errors: %v", out.problems)
	}
	a := &campaignPass{labels: []float64{1, 2}, qerrP50: map[string]float64{"GNN": 1.5}}
	b := &campaignPass{labels: []float64{1, 2}, qerrP50: map[string]float64{"GNN": 1.5000001}}
	out = newOutcome()
	checkSamePass(out, a, a)
	if len(out.problems) != 0 {
		t.Fatalf("identical passes: %v", out.problems)
	}
	checkSamePass(out, a, b)
	if len(out.problems) != 1 || !strings.Contains(out.problems[0], "GNN") {
		t.Fatalf("want the GNN drift caught, got %v", out.problems)
	}
	out = newOutcome()
	checkCorpusSize(out, &ml.Dataset{Examples: make([]ml.Example, 11)}, 12)
	if len(out.problems) != 1 || !strings.Contains(out.problems[0], "11 examples") {
		t.Fatalf("want the corpus-size check to fire, got %v", out.problems)
	}
	out = newOutcome()
	checkSamePass(out, a, &campaignPass{labels: []float64{1, 2.5}, qerrP50: a.qerrP50})
	if len(out.problems) != 1 || !strings.Contains(out.problems[0], "query 1 label") {
		t.Fatalf("want the label drift caught, got %v", out.problems)
	}
}

func TestServeChecksFire(t *testing.T) {
	cfg := small(t, false)
	s, err := openServe(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ph := s.runPhase(context.Background(), schedule(1, 300*time.Millisecond, 20, 20, 5), nil, false)
	if ph.failed != 0 {
		t.Fatalf("%d failed requests", ph.failed)
	}
	out := newOutcome()
	s.checkServe(context.Background(), out, nil)
	if len(out.problems) != 0 {
		t.Fatalf("clean run failed: %v", out.problems)
	}
	if len(s.completed) == 0 {
		t.Fatal("the schedule completed no job")
	}
	if len(s.jobRecords) == 0 {
		t.Fatal("jobs were completed with no records; a worker always sends its records")
	}

	// A record written behind the front door's back.
	if err := s.store.Append("runs", metrics.RunRecord{ID: "stray"}); err != nil {
		t.Fatal(err)
	}
	s.checkServe(context.Background(), out, nil)
	if len(out.problems) == 0 {
		t.Fatal("the run-count check did not fire")
	}

	// A completion the client claims but the dispatcher never saw.
	s.runWrites++
	out = newOutcome()
	s.completed["job-that-never-was"] = 1
	s.checkServe(context.Background(), out, nil)
	if len(out.problems) == 0 || !strings.Contains(strings.Join(out.problems, "\n"), "job-that-never-was") {
		t.Fatalf("the completed-jobs check did not fire: %v", out.problems)
	}
}

func TestBuildResultRequiresEveryEndToEndMetric(t *testing.T) {
	out := newOutcome()
	out.attempted = 1
	for _, m := range endToEnd[1:] {
		out.e2e[m.name] = 1
	}
	if _, err := buildResult(out, false); err == nil {
		t.Fatal("a missing end-to-end metric must be an error")
	}
	out.e2e[endToEnd[0].name] = 1
	res, err := buildResult(out, false)
	if err != nil || !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("res %+v err %v", res, err)
	}
	out.layer["not.declared"] = 1
	if _, err := buildResult(out, true); err == nil {
		t.Fatal("an undeclared per-layer metric must be an error")
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json, which the
// benchmark's callers read, in step with the metrics the code prints.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json is not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, code has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, code has %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, code has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, code has %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
