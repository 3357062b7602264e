// Package controller orchestrates PDSP-Bench experiments: it provisions
// (modelled) clusters, deploys generated workloads through an execution
// backend, collects run records into the store, and produces the data
// behind every figure of the paper's evaluation (Section 4). It is the
// Go counterpart of the paper's Django controller. The controller never
// talks to an engine directly — every run goes through the Backend
// interface (internal/backend), so the SUT is exchangeable exactly as
// the paper claims.
//
// Ownership: the controller owns run-record production — repetitions,
// averaging, storage appends — and Spec owns campaign semantics,
// including Shard, which splits a sweep into single-measurement
// sub-campaigns for the distributed fabric (internal/queue). A sharded
// campaign drained by N workers produces exactly the records the
// in-process campaign would; only the append site moves, from the
// local Store to the dispatcher's.
package controller

import (
	"context"

	"pdspbench/internal/backend"
	"pdspbench/internal/cluster"
	"pdspbench/internal/core"
	"pdspbench/internal/metrics"
	"pdspbench/internal/storage"
	"pdspbench/internal/tuple"
	"pdspbench/internal/workload"
)

// Controller runs experiments.
type Controller struct {
	// Cfg is the simulator configuration (fidelity and cost constants),
	// applied when the sim backend executes a run.
	Cfg backend.SimConfig
	// Backend executes the runs. Nil means the sim backend configured
	// with Cfg — the scale regime every figure experiment uses.
	Backend backend.Backend
	// Runs is the repetition count per measurement; the paper uses 3.
	Runs int
	// Nodes is the cluster size; the paper deploys clusters of 5 nodes.
	Nodes int
	// EventRate pins the source rate for Exp-1/2; the paper presents
	// results at its highest sustained event rate, where parallelism and
	// hardware effects are visible (low rates leave every operator
	// underutilized and flatten all curves).
	EventRate float64
	// Seed drives workload enumeration.
	Seed int64
	// Store, when set, receives every RunRecord (the MongoDB role).
	Store *storage.Store
	// Placement selects the instance-placement strategy.
	Placement cluster.Strategy
}

// New returns a controller with the paper's experiment defaults.
func New() *Controller {
	return &Controller{
		Cfg:       backend.SimDefaults(),
		Runs:      3,
		Nodes:     5,
		EventRate: 500_000,
		Seed:      1,
		Placement: cluster.PlaceRoundRobin,
	}
}

// Fast returns a controller with reduced simulation fidelity for quick
// interactive runs and unit tests; figure shapes are preserved.
func Fast() *Controller {
	c := New()
	c.Runs = 1
	c.Cfg.Duration = 12
	c.Cfg.SourceBatches = 96
	return c
}

// backend returns the execution backend for the next run. The sim
// default is constructed per call so Cfg edits between runs (SUT
// profiles, fidelity changes) always take effect.
func (c *Controller) backend() backend.Backend {
	if c.Backend != nil {
		return c.Backend
	}
	return &backend.Sim{Cfg: c.Cfg}
}

// BackendName names the backend the controller would run on — surfaced
// in listings and records.
func (c *Controller) BackendName() string { return c.backend().Name() }

// Homogeneous provisions the paper's homogeneous cluster (m510).
func (c *Controller) Homogeneous() *cluster.Cluster {
	return cluster.NewHomogeneous("m510", cluster.M510, c.Nodes)
}

// HeteroEpyc and HeteroHaswell provision the two CloudLab flavours the
// paper labels heterogeneous (Table 4), and Mixed interleaves them into
// one genuinely mixed deployment.
func (c *Controller) HeteroEpyc() *cluster.Cluster {
	return cluster.NewHomogeneous("c6525_25g", cluster.C6525_25G, c.Nodes)
}

// HeteroHaswell provisions the c6320 cluster.
func (c *Controller) HeteroHaswell() *cluster.Cluster {
	return cluster.NewHomogeneous("c6320", cluster.C6320, c.Nodes)
}

// Mixed provisions an interleaved c6525_25g/c6320 cluster.
func (c *Controller) Mixed() *cluster.Cluster {
	return cluster.NewHeterogeneous("mixed", []cluster.NodeType{cluster.C6525_25G, cluster.C6320}, c.Nodes)
}

// Measure executes one plan on the controller's backend, returning the
// paper's statistic (mean over Runs of each run's median latency) as a
// RunRecord and appending it to the store when one is configured.
func (c *Controller) Measure(ctx context.Context, plan *core.PQP, cl *cluster.Cluster) (*metrics.RunRecord, error) {
	return c.MeasureSpec(ctx, plan, cl, backend.RunSpec{})
}

// MeasureSpec is Measure with explicit per-run overrides; zero spec
// fields fall back to the controller's defaults.
func (c *Controller) MeasureSpec(ctx context.Context, plan *core.PQP, cl *cluster.Cluster, spec backend.RunSpec) (*metrics.RunRecord, error) {
	if spec.Runs <= 0 {
		spec.Runs = c.Runs
	}
	if spec.Placement == cluster.PlaceRoundRobin {
		spec.Placement = c.Placement
	}
	rec, err := c.backend().Run(ctx, plan, cl, spec)
	if err != nil {
		return nil, err
	}
	if c.Store != nil {
		if err := c.Store.Append("runs", rec); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// ExplainSim runs one simulation and returns the simulator's
// mean-latency breakdown (queue wait, service, network, window
// residence) — diagnostic attribution only the sim backend can supply.
// A nonzero seed replaces Cfg.Seed, as it does in a RunSpec.
func (c *Controller) ExplainSim(ctx context.Context, plan *core.PQP, cl *cluster.Cluster, seed int64) (backend.Breakdown, error) {
	sim := &backend.Sim{Cfg: c.Cfg}
	return sim.Explain(ctx, plan, cl, backend.RunSpec{Placement: c.Placement, Seed: seed})
}

// baseParams is the fixed synthetic-query configuration used by the
// figure experiments (Exp-1/2 vary structure, parallelism and hardware
// while pinning data parameters, as the paper does).
func (c *Controller) baseParams() workload.Params {
	return workload.Params{
		EventRate:  c.EventRate,
		TupleWidth: 5,
		FieldTypes: []tuple.Type{tuple.TypeInt, tuple.TypeInt, tuple.TypeDouble, tuple.TypeDouble, tuple.TypeString},
		Window: core.WindowSpec{
			Type: core.WindowSliding, Policy: core.PolicyTime, LengthMs: 1000, SlideRatio: 0.5,
		},
		AggFn:        core.AggSum,
		FilterFn:     core.FilterLess,
		Selectivity:  0.5,
		Partition:    core.PartitionRebalance,
		Distribution: "poisson",
	}
}

// SyntheticPlan builds one synthetic structure at the controller's event
// rate with the given uniform parallelism degree.
func (c *Controller) SyntheticPlan(s workload.Structure, degree int) (*core.PQP, error) {
	plan, err := workload.Build(s, c.baseParams())
	if err != nil {
		return nil, err
	}
	plan.SetUniformParallelism(degree)
	return plan, nil
}
