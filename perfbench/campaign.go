package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"pdspbench/internal/backend"
	"pdspbench/internal/cluster"
	"pdspbench/internal/controller"
	"pdspbench/internal/ml"
	"pdspbench/internal/ml/feature"
	"pdspbench/internal/mlmanager"
	"pdspbench/internal/workload"
)

// The campaign workload is the paper's Exp-3 loop on the simulator:
// label a corpus of synthetic queries (rule-based enumeration over every
// synthetic structure), train the four cost models on the ML Manager's
// split with a fixed amount of work, and score them on a held-out
// corpus. Every pass repeats the same seeded work, so passes differ only
// in time.
const (
	// campaignQueries is the corpus size. Labelling cost is heavy-tailed
	// (a rare 6-way join costs a thousand times a linear query), so the
	// corpus is large enough that its total cost moves little with the
	// seed, and training — fixed work — takes most of a pass.
	campaignQueries = 600
	heldOutQueries  = 120
	// campaignEpochs with Patience equal to it fixes the training work:
	// early stopping never fires.
	campaignEpochs = 30
	// labelStrategy is how BuildCorpus enumerates parallelism.
	labelStrategy = "rule-based"
	// maxEventRate mirrors the cap BuildCorpus puts on its enumerator.
	maxEventRate = 500_000
)

var modelNames = []string{"LR", "MLP", "RF", "GNN"}

// querySeed is the BuildCorpus seed of corpus query i. Each query is its
// own one-example corpus, so the benchmark can time every labelling.
func querySeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// heldOutSeed builds the held-out corpus. No corpus query uses it, and
// it is the same for every run seed: labelling cost is heavy-tailed, so
// a held-out corpus that changed with the seed would change the set-up
// work, and setup_s with it.
const heldOutSeed = -1

type campaignSetup struct {
	ctrl    *controller.Controller
	cl      *cluster.Cluster
	heldOut *ml.Dataset
}

func setupCampaign(ctx context.Context, cfg config, tr *tracer) (*campaignSetup, error) {
	c := controller.Fast()
	cl := c.Homogeneous()
	sp := tr.begin(0, 0, "controller", "BuildCorpus.heldout")
	corpus, err := c.BuildCorpus(ctx, labelStrategy, nil, cfg.scaled(heldOutQueries), cl, heldOutSeed)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("held-out corpus: %w", err)
	}
	return &campaignSetup{ctrl: c, cl: cl, heldOut: corpus.Dataset}, nil
}

// campaignPass is one Exp-3 pass.
type campaignPass struct {
	wall, cpu, corpus time.Duration
	// replay is the traced re-timing's share of wall, left out when a
	// traced pass is compared with an untraced one.
	replay   time.Duration
	labels   []float64
	trainS   map[string]float64
	epochs   map[string]int
	allocsEp map[string]float64
	qerrP50  map[string]float64
	// traced re-timing of the calls BuildCorpus makes
	enumUS, simMS, encodeUS []float64
}

func runCampaignPass(ctx context.Context, cfg config, s *campaignSetup, tr *tracer, req int64, out *outcome) (*campaignPass, error) {
	p := &campaignPass{trainS: map[string]float64{}, epochs: map[string]int{}, allocsEp: map[string]float64{}, qerrP50: map[string]float64{}}
	start, cpu0 := time.Now(), cpuTime()
	n := cfg.scaled(campaignQueries)
	ds := &ml.Dataset{}
	for i := 0; i < n; i++ {
		st := workload.Structures[i%len(workload.Structures)]
		out.attempted++
		sp := tr.begin(0, req, "controller", "BuildCorpus")
		t0 := time.Now()
		corpus, err := s.ctrl.BuildCorpus(ctx, labelStrategy, []workload.Structure{st}, 1, s.cl, querySeed(cfg.seed, i))
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return p, fmt.Errorf("query %d: %w", i, err)
		}
		p.corpus += d
		ds.Examples = append(ds.Examples, corpus.Dataset.Examples...)
		if tr != nil {
			t1 := time.Now()
			label, err := retimeQuery(ctx, s, st, querySeed(cfg.seed, i), tr, sp, req, p)
			p.replay += time.Since(t1)
			if err != nil {
				return p, fmt.Errorf("re-timing query %d: %w", i, err)
			}
			if len(corpus.Dataset.Examples) == 1 && label != corpus.Dataset.Examples[0].Latency {
				out.fail("campaign: query %d re-timed label %g differs from BuildCorpus label %g", i, label, corpus.Dataset.Examples[0].Latency)
			}
		}
	}
	checkCorpusSize(out, ds, n)
	for _, e := range ds.Examples {
		p.labels = append(p.labels, e.Latency)
	}
	if err := trainAndScore(ds, s.heldOut, tr, req, p, out); err != nil {
		return p, err
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	return p, nil
}

// retimeQuery repeats one query through the calls BuildCorpus makes —
// enumerate, simulate, encode — timing each. Its spans are attached to
// the BuildCorpus span they re-time, so the controller's self time is
// what BuildCorpus spends beyond those calls. It returns the label.
func retimeQuery(ctx context.Context, s *campaignSetup, st workload.Structure, seed int64, tr *tracer, parent int, req int64, p *campaignPass) (float64, error) {
	start := time.Now()
	enum := workload.NewEnumerator(seed)
	enum.MaxEventRate = maxEventRate
	strategy, err := workload.StrategyByName(labelStrategy, enum.Rand())
	if err != nil {
		return 0, err
	}
	base, err := workload.Build(st, enum.RandomParams())
	if err != nil {
		return 0, err
	}
	variants := strategy.Enumerate(base, s.cl, 1)
	if len(variants) == 0 {
		return 0, fmt.Errorf("no variant")
	}
	d := time.Since(start)
	tr.record(parent, req, "workload", "enumerate", start, d)
	p.enumUS = append(p.enumUS, float64(d.Nanoseconds())/1e3)

	plan := variants[0]
	start = time.Now()
	rec, err := (&backend.Sim{Cfg: s.ctrl.Cfg}).Run(ctx, plan, s.cl, backend.RunSpec{Runs: 1, Seed: seed, Placement: s.ctrl.Placement})
	d = time.Since(start)
	tr.record(parent, req, "backend", "Sim.Run", start, d)
	if err != nil {
		return 0, err
	}
	p.simMS = append(p.simMS, float64(d.Nanoseconds())/1e6)

	start = time.Now()
	_ = feature.EncodeFlat(plan, s.cl)
	_ = feature.EncodeGraph(plan, s.cl)
	d = time.Since(start)
	tr.record(parent, req, "ml", "encode", start, d)
	p.encodeUS = append(p.encodeUS, float64(d.Nanoseconds())/1e3)
	return rec.LatencyP50, nil
}

// trainAndScore trains the four Exp-3 models through mlmanager.Compare,
// the call Exp3Models makes, and scores each on the held-out corpus.
// Compare keeps its models to itself, so each factory hands it a
// keptModel that the benchmark can still reach afterwards.
func trainAndScore(ds, heldOut *ml.Dataset, tr *tracer, req int64, p *campaignPass, out *outcome) error {
	root := tr.begin(0, req, "mlmanager", "Compare")
	var kept []*keptModel
	var factories []mlmanager.Factory
	for _, f := range mlmanager.DefaultModels() {
		f := f
		factories = append(factories, mlmanager.Factory{Name: f.Name, New: func() ml.Model {
			k := &keptModel{Model: f.New(), name: f.Name, tr: tr, parent: root, req: req}
			kept = append(kept, k)
			return k
		}})
	}
	out.attempted += int64(len(factories))
	mgr := mlmanager.New(ml.TrainOptions{MaxEpochs: campaignEpochs, Patience: campaignEpochs})
	evs, err := mgr.Compare(factories, ds)
	tr.end(root)
	if err != nil {
		return err
	}
	for _, ev := range evs {
		p.trainS[ev.Model] = ev.TrainTime.Seconds()
		p.epochs[ev.Model] = ev.Epochs
	}
	for _, k := range kept {
		if tr != nil && k.epochs > 0 {
			p.allocsEp[k.name] = float64(k.mallocs) / float64(k.epochs)
		}
		sp := tr.begin(0, req, "ml", "QErrors."+k.name)
		qs := ml.QErrors(k, heldOut)
		tr.end(sp)
		checkFinite(out, k.name, qs)
		p.qerrP50[k.name] = median(qs)
	}
	return nil
}

// keptModel is a model mlmanager.Compare trains. It times Train as an
// ml span under the Compare span and, in a traced pass, counts the
// allocations training makes.
type keptModel struct {
	ml.Model
	name   string
	tr     *tracer
	parent int
	req    int64
	// mallocs and epochs are the last Train's allocation count (traced
	// passes only) and epoch count.
	mallocs uint64
	epochs  int
}

func (k *keptModel) Train(train, val *ml.Dataset, opts ml.TrainOptions) (*ml.TrainStats, error) {
	var m0 runtime.MemStats
	if k.tr != nil {
		m0 = readMem()
	}
	sp := k.tr.begin(k.parent, k.req, "ml", "Train."+k.name)
	ts, err := k.Model.Train(train, val, opts)
	k.tr.end(sp)
	if err != nil {
		return ts, err
	}
	if k.tr != nil {
		k.mallocs = diffMem(m0, readMem()).mallocs
	}
	k.epochs = ts.Epochs
	return ts, nil
}

func runCampaign(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	s, setupS, err := timeSetups(ctx, func() (*campaignSetup, error) { return setupCampaign(ctx, cfg, tr) }, nil)
	if err != nil {
		return out, err
	}
	out.e2e["setup_s"] = setupS
	if !cfg.trace {
		passes, heapMB, err := campaignPhase(ctx, cfg, s, cfg.budget(), nil, out)
		if err != nil {
			return out, err
		}
		reportCampaign(out, passes, heapMB)
		return out, nil
	}
	half := cfg.budget() / 2
	base, _, err := campaignPhase(ctx, cfg, s, half, nil, out)
	if err != nil {
		return out, err
	}
	traced, _, err := campaignPhase(ctx, cfg, s, half, tr, out)
	if err != nil {
		return out, err
	}
	campaignLayers(out, traced)
	cost := func(ps []*campaignPass) float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, (p.wall - p.replay).Seconds())
		}
		return median(xs)
	}
	out.layer["trace.overhead_pct"] = overheadPct(cost(base), cost(traced))
	finishTrace(tr, cfg, "campaign", out)
	return out, nil
}

// campaignPhase runs passes until the budget is spent. Passes repeat the
// same seeded work, so their labels and q-errors must agree exactly.
func campaignPhase(ctx context.Context, cfg config, s *campaignSetup, budget time.Duration, tr *tracer, out *outcome) ([]*campaignPass, float64, error) {
	heap := startHeapSampler()
	deadline := time.Now().Add(budget)
	var passes []*campaignPass
	for req := int64(1); len(passes) == 0 || time.Now().Before(deadline); req++ {
		p, err := runCampaignPass(ctx, cfg, s, tr, req, out)
		if err != nil {
			return passes, heap.mean(), err
		}
		if len(passes) > 0 {
			checkSamePass(out, passes[0], p)
		}
		passes = append(passes, p)
	}
	return passes, heap.mean(), nil
}

// checkCorpusSize fails the run when the corpus lost or gained examples.
func checkCorpusSize(out *outcome, ds *ml.Dataset, n int) {
	if ds.Len() != n {
		out.fail("campaign: corpus has %d examples, %d requested", ds.Len(), n)
	}
}

// checkFinite fails the run on the first q-error that is NaN or infinite.
func checkFinite(out *outcome, model string, qs []float64) {
	for _, q := range qs {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			out.fail("campaign: %s q-error %v is not finite", model, q)
			return
		}
	}
}

func checkSamePass(out *outcome, a, b *campaignPass) {
	for i := range a.labels {
		if i >= len(b.labels) || a.labels[i] != b.labels[i] {
			out.fail("campaign: query %d label differs between passes of one seed", i)
			return
		}
	}
	for _, m := range modelNames {
		if a.qerrP50[m] != b.qerrP50[m] {
			out.fail("campaign: %s qerror_p50 %v then %v across passes of one seed", m, a.qerrP50[m], b.qerrP50[m])
		}
	}
}

// reportCampaign: an op is one corpus query, labelled and learned, and
// latency is a pass's time to model — from the first query until the
// four models are trained and scored. Passes are few, so the p99 is the
// slowest pass.
func reportCampaign(out *outcome, passes []*campaignPass, heapMB float64) {
	var rates, cpuPerK, lats []float64
	for _, p := range passes {
		n := float64(len(p.labels))
		rates = append(rates, n/p.wall.Seconds())
		cpuPerK = append(cpuPerK, float64(p.cpu.Microseconds())/1e3/n*1000)
		lats = append(lats, float64(p.wall.Microseconds())/1e3)
	}
	out.e2e["heap_mean_mb"] = heapMB
	out.e2e["throughput_per_s"] = median(rates)
	out.e2e["cpu_ms_per_kop"] = median(cpuPerK)
	out.e2e["latency_p50_ms"] = quantile(lats, 0.5)
	out.e2e["latency_p99_ms"] = quantile(lats, 0.99)
}

func campaignLayers(out *outcome, passes []*campaignPass) {
	var corpusS, enum, sim, enc []float64
	perModel := map[string][]float64{}
	var total []float64
	for _, p := range passes {
		corpusS = append(corpusS, p.corpus.Seconds())
		enum = append(enum, p.enumUS...)
		sim = append(sim, p.simMS...)
		enc = append(enc, p.encodeUS...)
		var sum float64
		for _, m := range modelNames {
			perModel[m] = append(perModel[m], p.trainS[m])
			sum += p.trainS[m]
		}
		total = append(total, sum)
	}
	last := passes[len(passes)-1]
	out.layer["controller.corpus_s"] = median(corpusS)
	out.layer["workload.enumerate_us"] = mean(enum)
	out.layer["simengine.run_ms_p50"] = quantile(sim, 0.5)
	out.layer["simengine.run_ms_p99"] = quantile(sim, 0.99)
	out.layer["ml.encode_us"] = mean(enc)
	out.layer["ml.train_s.total"] = median(total)
	for _, m := range modelNames {
		out.layer["ml.train_s."+m] = median(perModel[m])
		out.layer["ml.epochs."+m] = float64(last.epochs[m])
		out.layer["ml.qerror_p50."+m] = last.qerrP50[m]
	}
	out.layer["ml.allocs_per_epoch.MLP"] = last.allocsEp["MLP"]
	out.layer["ml.allocs_per_epoch.GNN"] = last.allocsEp["GNN"]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
