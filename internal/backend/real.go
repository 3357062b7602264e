package backend

import (
	"context"
	"time"

	"pdspbench/internal/chaos"
	"pdspbench/internal/cluster"
	"pdspbench/internal/core"
	"pdspbench/internal/engine"
	"pdspbench/internal/metrics"
	"pdspbench/internal/stream"
)

func init() {
	Register("real", func() Backend { return &Real{} })
}

// Real executes plans on the in-process dataflow engine — goroutine
// operator instances, bounded channels, real wall-clock latencies. It
// is the functional-regime SUT: sources are bounded
// (spec.TuplesPerSource per instance) so a run terminates, and the
// modelled cluster is recorded but not enforced, since every instance
// shares this machine.
type Real struct {
	// Opts carries engine tuning (batching, data plane, channel capacity).
	// Sources, UDOs and SinkTap are populated per run from the RunSpec.
	Opts engine.Options
}

// Name implements Backend.
func (r *Real) Name() string { return "real" }

// Run executes the plan spec.Runs times on the real engine and reports
// the same statistic as the sim backend (mean of the runs' median
// latencies, companion metrics averaged, tuple counts from the last
// run's accounting summed over repetitions divided out). Payloads come
// from spec.App when set; otherwise sources are synthesized from the
// plan's schemas, which covers plans of standard operators (UDO plans
// need their application's implementations).
func (r *Real) Run(ctx context.Context, plan *core.PQP, cl *cluster.Cluster, spec RunSpec) (*metrics.RunRecord, error) {
	runs := spec.Runs
	if runs <= 0 {
		runs = 1
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	tuples := spec.TuplesPerSource
	if tuples <= 0 {
		tuples = DefaultTuplesPerSource
	}
	rec := &metrics.RunRecord{
		ID:        recordID(r.Name(), plan, cl),
		Backend:   r.Name(),
		Workload:  plan.Structure,
		Cluster:   cl.Name,
		Category:  core.CategoryForDegree(plan.MaxParallelism()).String(),
		MaxDegree: plan.MaxParallelism(),
		EventRate: planEventRate(plan),
		Runs:      runs,
	}
	var faultEvents []chaos.Event
	if !spec.Faults.Empty() {
		events, err := spec.Faults.Schedule(plan, cl, spec.Placement)
		if err != nil {
			return nil, err
		}
		faultEvents = events
		rec.FaultSchedule = chaos.Hash(events)
	}
	var in, out uint64
	for i := 0; i < runs; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		opts := r.Opts
		runSeed := seed + int64(i)*7919
		if spec.App != nil {
			opts.Sources = spec.App.Sources(runSeed, tuples)
			opts.UDOs = spec.App.UDOs()
		} else {
			opts.Sources = syntheticSources(plan, runSeed, tuples)
		}
		opts.Sources = disorderSources(plan, opts.Sources, runSeed)
		opts.AllowedLateness = time.Duration(spec.AllowedLatenessMs) * time.Millisecond
		opts.SinkTap = spec.SinkTap
		if faultEvents != nil {
			opts.Faults = faultEvents
			opts.MaxRestarts = spec.Faults.Restarts()
			opts.RestartDelay = time.Duration(spec.Faults.Delay() * float64(time.Second))
			// Fault event times are seconds from run start; throttling
			// paces the run in real time so the schedule lands inside it.
			opts.Throttle = true
		}
		rt, err := engine.New(plan, opts)
		if err != nil {
			return nil, err
		}
		rep, err := rt.Run(ctx)
		if err != nil {
			return nil, err
		}
		n := float64(runs)
		rec.LatencyP50 += rep.LatencyP50 / n
		rec.LatencyP95 += rep.LatencyP95 / n
		rec.LatencyP99 += rep.LatencyP99 / n
		rec.LatencyMean += rep.LatencyMean / n
		rec.Throughput += rep.Throughput / n
		rec.ElapsedSec += rep.Elapsed.Seconds() / n
		in += rep.TuplesIn
		out += rep.TuplesOut
		rec.FaultsInjected += rep.FaultsInjected
		rec.Restarts += rep.Restarts
		rec.DowntimeMS += float64(rep.Downtime.Milliseconds())
		rec.RecoveredTuples += rep.RecoveredTuples
		rec.LateDrops += rep.LateDrops
	}
	rec.TuplesIn = in / uint64(runs)
	rec.TuplesOut = out / uint64(runs)
	return rec, nil
}

// disorderSources wraps the factories of sources whose plan spec
// carries a DisorderSpec in stream.NewDisordered, so event-time
// disorder applies uniformly to synthetic and application sources.
// Seeds are decorrelated per source and instance so parallel instances
// shuffle independently.
func disorderSources(plan *core.PQP, sources map[string]engine.SourceFactory, seed int64) map[string]engine.SourceFactory {
	var wrapped map[string]engine.SourceFactory
	for si, src := range plan.Sources() {
		d := src.Source.Disorder
		inner := sources[src.ID]
		if d == nil || inner == nil {
			continue
		}
		if wrapped == nil {
			wrapped = make(map[string]engine.SourceFactory, len(sources))
			for id, f := range sources {
				wrapped[id] = f
			}
		}
		dSeed := seed + 31 + int64(si)*104729
		spec := d
		wrapped[src.ID] = func(idx int) engine.SourceGenerator {
			return stream.NewDisordered(inner(idx), spec, dSeed+int64(idx)*7919)
		}
	}
	if wrapped == nil {
		return sources
	}
	return wrapped
}

// syntheticSources builds bounded random generators for every source
// operator from its declared schema, rate and distribution. Seeds are
// decorrelated per source and per instance so parallel sources do not
// duplicate data.
func syntheticSources(plan *core.PQP, seed int64, tuplesPerInstance int) map[string]engine.SourceFactory {
	out := make(map[string]engine.SourceFactory)
	for si, src := range plan.Sources() {
		spec := src.Source
		srcSeed := seed + int64(si)*104729
		out[src.ID] = func(idx int) engine.SourceGenerator {
			return stream.NewSynthetic(spec.Schema, srcSeed+int64(idx)*7919, tuplesPerInstance, spec.EventRate, spec.Distribution)
		}
	}
	return out
}
