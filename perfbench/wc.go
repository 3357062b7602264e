package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"pdspbench/internal/apps"
	"pdspbench/internal/engine"
	"pdspbench/internal/tuple"
)

// The WordCount workloads (replay, paced) run apps.WordCount on the real
// engine at uniform parallelism 2 with zero engine tuning options — the
// configuration backend.Real runs. Input is generated before the clock
// starts by the application's own source generator and kept in a
// pointer-free arena, so the garbage collector never scans it and the
// replay generator costs a few allocations per tuple.
const (
	wcParallelism = 2
	// wcSentences is the arena size: one replay pass plays all of it.
	wcSentences = 400_000
	// pacedRate is the fixed offered load of the paced workload, about a
	// sixth of replay capacity on a 2-core host. It is never calibrated at
	// run time, so a faster build is not offered more load.
	pacedRate = 100_000
	// pacedWarmup drops sink latencies of the paced run's first moments,
	// while goroutines start and the heap grows.
	pacedWarmup = 500 * time.Millisecond
	// pacedBurst: the engine's source stamps ingest time once per 16
	// tuples, so the paced generator sleeps only on multiples of 16 and
	// the first tuple after each sleep reads a fresh clock.
	pacedBurst = 16
	// latencyWindow splits the paced run; its latency quantiles are the
	// medians of the per-window quantiles, so a few seconds of contention
	// from outside the process do not decide the result. Windows with
	// fewer than minWindowSamples deliveries (the tail of the run) are
	// left out: a p99 needs ten samples beyond it.
	latencyWindow    = 2 * time.Second
	minWindowSamples = 1000
	// minHeadroom is how much faster than the engine the generator alone
	// must be for the input rate to measure the engine.
	minHeadroom = 3
)

var wcOperators = []string{"src", "split", "count", "sink"}

// arena holds the input sentences end to end in one string with their
// end offsets and event times: no pointers for the collector to mark.
type arena struct {
	text   string
	ends   []uint32
	events []int64
}

func (a *arena) len() int { return len(a.ends) }

func (a *arena) sentence(i int) string {
	start := uint32(0)
	if i > 0 {
		start = a.ends[i-1]
	}
	return a.text[start:a.ends[i]]
}

// buildArena materializes n sentences from WordCount's source generator.
func buildArena(seed int64, n int) *arena {
	gen := apps.WordCount.Sources(seed, n)["src"](0)
	var b strings.Builder
	b.Grow(n * 36)
	a := &arena{ends: make([]uint32, 0, n), events: make([]int64, 0, n)}
	for {
		t, ok := gen.Next()
		if !ok {
			break
		}
		b.WriteString(t.Values[0].S)
		a.ends = append(a.ends, uint32(b.Len()))
		a.events = append(a.events, t.EventTime)
	}
	a.text = b.String()
	return a
}

// wordCounts is the reference answer for the first n sentences replayed
// cyclically: word frequencies counted straight from the arena text.
func (a *arena) wordCounts(n int) map[string]int64 {
	counts := map[string]int64{}
	add := func(upto int, times int64) {
		for i := 0; i < upto; i++ {
			for _, w := range strings.Fields(a.sentence(i)) {
				counts[w] += times
			}
		}
	}
	if full := int64(n / a.len()); full > 0 {
		add(a.len(), full)
	}
	add(n%a.len(), 1)
	return counts
}

// replaySource is the benchmark's generator: it builds each fresh tuple
// from the arena. A paced source sleeps to its own schedule; the engine
// is never asked to throttle.
type replaySource struct {
	a *arena
	n int // sentences to emit, cycling through the arena
	i int

	paced bool
	gapNs float64
	start time.Time
	lags  []float64 // ms behind schedule, one sample per burst

	// Traced runs time the gaps between Next calls: the source
	// goroutine's emit and backpressure time.
	traced   bool
	lastCall time.Time
	emitNs   int64
}

func (g *replaySource) Next() (*tuple.Tuple, bool) {
	if g.traced {
		now := time.Now()
		if !g.lastCall.IsZero() {
			g.emitNs += now.Sub(g.lastCall).Nanoseconds()
		}
		defer func() { g.lastCall = time.Now() }()
	}
	if g.i >= g.n {
		return nil, false
	}
	if g.paced && g.i%pacedBurst == 0 {
		now := time.Now()
		if g.i == 0 {
			g.start = now
		}
		due := g.start.Add(time.Duration(float64(g.i) * g.gapNs))
		if d := due.Sub(now); d > 0 {
			time.Sleep(d)
			now = time.Now()
		}
		g.lags = append(g.lags, float64(now.Sub(due).Nanoseconds())/1e6)
	}
	k := g.i % g.a.len()
	cycle := int64(g.i / g.a.len())
	t := &tuple.Tuple{
		Values:    []tuple.Value{tuple.String(g.a.sentence(k))},
		EventTime: g.a.events[k] + cycle*(g.a.events[g.a.len()-1]+1),
	}
	g.i++
	return t, true
}

// wcSink collects every sink output: per-word totals for the check and
// sink latency from the ingest time of the last contributing tuple.
type wcSink struct {
	mu     sync.Mutex
	counts map[string]int64
	from   int64       // unix ns; deliveries before it are not sampled
	window int64       // ns per latency window; 0 keeps one window
	lats   [][]float64 // ms, per window
}

func newWCSink() *wcSink { return &wcSink{counts: map[string]int64{}} }

func (s *wcSink) tap(_ string, t *tuple.Tuple) {
	now := time.Now().UnixNano()
	s.mu.Lock()
	s.counts[t.Values[0].S] += int64(t.Values[1].D)
	if now >= s.from && t.Ingest > 0 {
		w := 0
		if s.window > 0 {
			w = int((now - s.from) / s.window)
		}
		for len(s.lats) <= w {
			s.lats = append(s.lats, nil)
		}
		s.lats[w] = append(s.lats[w], float64(now-t.Ingest)/1e6)
	}
	s.mu.Unlock()
	t.Release()
}

// wcPass is one engine run: New, then Run to end of stream.
type wcPass struct {
	rep    *engine.Report
	newDur time.Duration
	runDur time.Duration
	cpu    time.Duration
	mem    memDelta
}

func runWC(ctx context.Context, src engine.SourceGenerator, sink *wcSink, tr *tracer, req int64) (*wcPass, error) {
	plan := apps.WordCount.Build(pacedRate)
	plan.SetUniformParallelism(wcParallelism)
	var m0 runtime.MemStats
	if tr != nil {
		m0 = readMem()
	}
	cpu0 := cpuTime()
	p := &wcPass{}
	sp := tr.begin(0, req, "engine", "engine.New")
	start := time.Now()
	rt, err := engine.New(plan, engine.Options{
		Sources: map[string]engine.SourceFactory{"src": func(int) engine.SourceGenerator { return src }},
		UDOs:    apps.WordCount.UDOs(),
		SinkTap: sink.tap,
	})
	p.newDur = time.Since(start)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(0, req, "engine", "Runtime.Run")
	start = time.Now()
	p.rep, err = rt.Run(ctx)
	p.runDur = time.Since(start)
	tr.end(sp)
	p.cpu = cpuTime() - cpu0
	if tr != nil {
		p.mem = diffMem(m0, readMem())
	}
	return p, err
}

// checkWC holds one run to the reference: every input sentence was
// ingested, nothing was dropped, and the per-word totals over all sink
// outputs equal the counts taken from the arena. Partial windows flush
// at end of stream, so the totals are exact at any parallelism.
func checkWC(out *outcome, p *wcPass, src *replaySource, sink *wcSink, want map[string]int64) {
	rep := p.rep
	if src.i != src.n {
		out.fail("wc: generator emitted %d of %d sentences", src.i, src.n)
	}
	if rep.TuplesIn != uint64(src.n) {
		out.fail("wc: engine ingested %d tuples, input has %d", rep.TuplesIn, src.n)
	}
	if rep.LateDrops != 0 || rep.UDOPanics != 0 {
		out.fail("wc: %d late drops, %d UDO panics", rep.LateDrops, rep.UDOPanics)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.counts) != len(want) {
		out.fail("wc: sink saw %d distinct words, input has %d", len(sink.counts), len(want))
	}
	bad := 0
	for w, n := range want {
		if sink.counts[w] != n {
			if bad == 0 {
				out.fail("wc: word %q counted %d times, input has %d", w, sink.counts[w], n)
			}
			bad++
		}
	}
	if bad > 1 {
		out.fail("wc: %d more words miscounted", bad-1)
	}
}

// wcSetup builds the arena setupRepeats times; every build from one seed
// must be identical.
func wcSetup(ctx context.Context, cfg config, out *outcome, tr *tracer) (*arena, float64, error) {
	n := cfg.scaled(wcSentences)
	var first *arena
	var genNs []float64
	a, setupS, err := timeSetups(ctx, func() (*arena, error) {
		sp := tr.begin(0, 0, "apps", "WordCount.Sources")
		start := time.Now()
		a := buildArena(cfg.seed, n)
		genNs = append(genNs, float64(time.Since(start).Nanoseconds())/float64(n))
		tr.end(sp)
		if first == nil {
			first = a
		} else if a.text != first.text {
			out.fail("wc: two arenas built from seed %d differ", cfg.seed)
		}
		return a, nil
	}, nil)
	out.layer["apps.gen_ns_per_tuple"] = median(genNs)
	return a, setupS, err
}

// genAlone replays the arena through the generator with no engine: the
// generator's own rate and its allocations per tuple.
func genAlone(a *arena) (rate float64, mallocs, bytes float64) {
	src := &replaySource{a: a, n: a.len()}
	m0 := readMem()
	start := time.Now()
	for _, ok := src.Next(); ok; _, ok = src.Next() {
	}
	d := time.Since(start)
	md := diffMem(m0, readMem())
	n := float64(a.len())
	return n / d.Seconds(), float64(md.mallocs) / n, float64(md.bytes) / n
}

// wcPhase measures one timed phase of a WordCount workload.
type wcPhase func(ctx context.Context, a *arena, budget time.Duration, tr *tracer, out *outcome) (*wcStats, error)

func runReplay(ctx context.Context, cfg config) (*outcome, error) {
	var want map[string]int64
	phase := func(ctx context.Context, a *arena, budget time.Duration, tr *tracer, out *outcome) (*wcStats, error) {
		if want == nil {
			want = a.wordCounts(a.len())
		}
		return replayPhase(ctx, a, want, budget, tr, out)
	}
	return runWordCount(ctx, cfg, "replay", phase, func(st *wcStats) float64 { return 1 / median(st.rates) })
}

func runPaced(ctx context.Context, cfg config) (*outcome, error) {
	return runWordCount(ctx, cfg, "paced", pacedPhase, func(st *wcStats) float64 { return median(st.p50s) })
}

// runWordCount sets up the arena and runs the timed phase; a traced run
// spends half the budget untraced and half traced, and compares their
// cost metrics for the tracing overhead.
func runWordCount(ctx context.Context, cfg config, name string, phase wcPhase, cost func(*wcStats) float64) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	a, setupS, err := wcSetup(ctx, cfg, out, tr)
	if err != nil {
		return out, err
	}
	out.e2e["setup_s"] = setupS
	if !cfg.trace {
		st, err := phase(ctx, a, cfg.budget(), nil, out)
		if err != nil {
			return out, err
		}
		st.report(out)
		return out, nil
	}
	half := cfg.budget() / 2
	base, err := phase(ctx, a, half, nil, out)
	if err != nil {
		return out, err
	}
	traced, err := phase(ctx, a, half, tr, out)
	if err != nil {
		return out, err
	}
	traced.layers(out, a)
	out.layer["trace.overhead_pct"] = overheadPct(cost(base), cost(traced))
	finishTrace(tr, cfg, name, out)
	return out, nil
}

// wcStats gathers one phase of WordCount passes.
type wcStats struct {
	rates, cpuPerK []float64
	// p50s and p99s hold one latency quantile per pass (replay) or per
	// window (paced); the phase reports their medians.
	p50s, p99s []float64
	heapMB     float64
	passes     []*wcPass
	emitNs     int64
	tuples     int64
	lags       []float64
}

// addLatencies folds in a sink's latency windows.
func (st *wcStats) addLatencies(s *wcSink) {
	for i, w := range s.lats {
		if len(w) < minWindowSamples && !(i == 0 && len(s.lats) == 1) {
			continue
		}
		st.p50s = append(st.p50s, quantile(w, 0.5))
		st.p99s = append(st.p99s, quantile(w, 0.99))
	}
}

func (st *wcStats) report(out *outcome) {
	out.e2e["heap_mean_mb"] = st.heapMB
	out.e2e["throughput_per_s"] = median(st.rates)
	out.e2e["cpu_ms_per_kop"] = median(st.cpuPerK)
	out.e2e["latency_p50_ms"] = median(st.p50s)
	out.e2e["latency_p99_ms"] = median(st.p99s)
}

// layers reports the engine's per-layer metrics from a traced phase.
func (st *wcStats) layers(out *outcome, a *arena) {
	var newMS, runS, cpuS, allocs, bytes, gcs, pause []float64
	genRate, genAllocs, genBytes := genAlone(a)
	for _, p := range st.passes {
		n := float64(p.rep.TuplesIn)
		newMS = append(newMS, float64(p.newDur.Microseconds())/1e3)
		runS = append(runS, p.runDur.Seconds())
		cpuS = append(cpuS, p.cpu.Seconds())
		allocs = append(allocs, float64(p.mem.mallocs)/n-genAllocs)
		bytes = append(bytes, float64(p.mem.bytes)/n-genBytes)
		gcs = append(gcs, float64(p.mem.gcs))
		pause = append(pause, float64(p.mem.pause.Microseconds())/1e3)
		out.layer["engine.late_drops"] += float64(p.rep.LateDrops)
		out.layer["engine.udo_panics"] += float64(p.rep.UDOPanics)
	}
	out.layer["apps.gen_headroom"] = genRate / median(st.rates)
	if h := out.layer["apps.gen_headroom"]; h < minHeadroom {
		out.fail("wc: the generator alone replays only %.1fx the engine's input rate; below %dx the run measures the generator", h, minHeadroom)
	}
	out.layer["engine.new_ms"] = median(newMS)
	out.layer["engine.run_s"] = median(runS)
	out.layer["engine.cpu_s"] = median(cpuS)
	out.layer["engine.allocs_per_tuple"] = median(allocs)
	out.layer["engine.bytes_per_tuple"] = median(bytes)
	out.layer["engine.gc_cycles"] = median(gcs)
	out.layer["engine.gc_pause_ms"] = median(pause)
	out.layer["engine.source_emit_ns_per_tuple"] = float64(st.emitNs) / float64(st.tuples)
	out.layer["engine.source_lag_p99_ms"] = quantile(st.lags, 0.99)
	last := st.passes[len(st.passes)-1].rep
	for _, op := range wcOperators {
		out.layer["engine.op."+op+".in"] = float64(last.PerOperator[op].In)
		out.layer["engine.op."+op+".out"] = float64(last.PerOperator[op].Out)
	}
}

// replayPhase replays the whole arena unpaced, pass after pass, until
// the budget is spent; each pass is checked against the reference.
func replayPhase(ctx context.Context, a *arena, want map[string]int64, budget time.Duration, tr *tracer, out *outcome) (*wcStats, error) {
	st := &wcStats{}
	heap := startHeapSampler()
	deadline := time.Now().Add(budget)
	for pass := int64(1); len(st.passes) == 0 || time.Now().Before(deadline); pass++ {
		src := &replaySource{a: a, n: a.len(), traced: tr != nil}
		sink := newWCSink()
		out.attempted += int64(src.n)
		p, err := runWC(ctx, src, sink, tr, pass)
		if err != nil {
			st.heapMB = heap.mean()
			return st, fmt.Errorf("replay pass %d: %w", pass, err)
		}
		checkWC(out, p, src, sink, want)
		st.passes = append(st.passes, p)
		st.rates = append(st.rates, float64(p.rep.TuplesIn)/p.runDur.Seconds())
		st.cpuPerK = append(st.cpuPerK, float64(p.cpu.Microseconds())/1e3/float64(src.n)*1000)
		st.addLatencies(sink)
		st.emitNs += src.emitNs
		st.tuples += int64(src.n)
	}
	st.heapMB = heap.mean()
	return st, nil
}

// pacedPhase offers the arena, cycled, at pacedRate for the budget.
func pacedPhase(ctx context.Context, a *arena, budget time.Duration, tr *tracer, out *outcome) (*wcStats, error) {
	n := int(budget.Seconds() * pacedRate)
	if n < pacedBurst {
		n = pacedBurst
	}
	src := &replaySource{a: a, n: n, paced: true, gapNs: 1e9 / pacedRate, traced: tr != nil}
	sink := newWCSink()
	warm := pacedWarmup
	if budget < 4*warm {
		warm = budget / 4
	}
	sink.from = time.Now().Add(warm).UnixNano()
	sink.window = latencyWindow.Nanoseconds()
	out.attempted += int64(n)
	st := &wcStats{}
	heap := startHeapSampler()
	p, err := runWC(ctx, src, sink, tr, 1)
	st.heapMB = heap.mean()
	if err != nil {
		return st, fmt.Errorf("paced run: %w", err)
	}
	checkWC(out, p, src, sink, a.wordCounts(n))
	st.passes = []*wcPass{p}
	st.rates = []float64{float64(p.rep.TuplesIn) / p.runDur.Seconds()}
	st.cpuPerK = []float64{float64(p.cpu.Microseconds()) / 1e3 / float64(n) * 1000}
	st.addLatencies(sink)
	st.emitNs, st.tuples, st.lags = src.emitNs, int64(n), src.lags
	return st, nil
}
