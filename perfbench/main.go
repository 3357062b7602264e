// Command perfbench is PDSP-Bench's end-to-end benchmark. It drives the
// system from outside, through the public functions of each layer, on
// four workloads:
//
//	replay    WordCount on the real engine, replayed unpaced from an arena
//	paced     the same plan and input, offered open loop at a fixed rate
//	campaign  the Exp-3 loop on the simulator: label a corpus, train four
//	          cost models, score them on a held-out corpus
//	serve     a self-hosted dispatcher under an open-loop request mix
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 they are the per-layer metrics,
// each layer's self time and the tracing overhead. The exit code is
// non-zero when a correctness check fails or the run errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// hardLimit bounds the whole process: a hang anywhere becomes a reported
// failure well inside the three minutes a run may take.
const hardLimit = 170 * time.Second

// config is what one run is asked to do.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// scale shrinks every input and duration (tests run at a few percent).
	scale float64
	// workDir holds what a run leaves behind: span files under trace/
	// and, while the run lasts, temporary stores under tmp/.
	workDir string
}

func (c config) tmpDir() string { return filepath.Join(c.workDir, "tmp") }

// budget is the timed phase length.
func (c config) budget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// scaled shrinks a workload size constant by the test scale.
func (c config) scaled(n int) int {
	if c.scale <= 0 || c.scale >= 1 {
		return n
	}
	if m := int(float64(n) * c.scale); m > 0 {
		return m
	}
	return 1
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int64
	// problems lists every failed correctness check.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a failed correctness check; each one also counts as a
// failed operation so the failure shows in the result counts.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
	o.failed++
}

type workloadFunc func(ctx context.Context, cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"replay":   runReplay,
	"paced":    runPaced,
	"campaign": runCampaign,
	"serve":    runServe,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: replay, paced, campaign or serve")
	seed := fs.Int64("seed", 1, "input seed (the same seed gives the same inputs)")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: filepath.Join(cwd, ".bench_build")}

	fp := fingerprint(cwd)
	fpLine, _ := json.Marshal(map[string]any{"fingerprint": fp, "workload": *name, "seed": *seed, "trace": *trace})
	fmt.Println(string(fpLine))

	// The watchdog catches a hang that ignores the context.
	watchdog := time.AfterFunc(hardLimit+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog: run did not finish, aborting")
		os.Exit(3)
	})
	defer watchdog.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()

	out, err := wl(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		if out == nil {
			return 1
		}
		out.fail("run error: %v", err)
	}
	res, err := buildResult(out, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildResult assembles the final line. An untraced run must have
// measured every end-to-end metric; a traced run reports every
// per-layer metric, zero where the workload does not use that layer.
func buildResult(out *outcome, traced bool) (*result, error) {
	res := &result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
		res.Failed++
	}
	if !traced {
		for _, m := range endToEnd {
			v, ok := out.e2e[m.name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %q was not measured", m.name)
			}
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
		return res, nil
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{Value: out.layer[m.name], Unit: m.unit}
	}
	for k := range out.layer {
		if _, ok := res.Metrics[k]; !ok {
			return nil, fmt.Errorf("per-layer metric %q is not declared", k)
		}
	}
	return res, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
