package controller

import (
	"context"
	"encoding/json"
	"fmt"

	"pdspbench/internal/backend"
	"pdspbench/internal/chaos"
	"pdspbench/internal/cluster"
	"pdspbench/internal/core"
	"pdspbench/internal/metrics"
	"pdspbench/internal/workload"
)

// Spec is a declarative benchmark campaign — the file-based counterpart
// of the inputs the paper's web UI collects (applications, parallelism
// enumeration, cluster setup, SUT selection) before the controller
// orchestrates the runs.
type Spec struct {
	Name string `json:"name"`
	// SUT selects a simulator cost profile: flink (default), storm,
	// microbatch.
	SUT string `json:"sut,omitempty"`
	// Backend selects the execution backend (sim by default, or real for
	// bounded in-process execution).
	Backend string `json:"backend,omitempty"`
	// Cluster is m510 (default), c6525_25g, c6320 or mixed; Nodes
	// defaults to 5.
	Cluster string `json:"cluster,omitempty"`
	Nodes   int    `json:"nodes,omitempty"`
	// EventRate defaults to the controller's (500k events/s).
	EventRate float64 `json:"event_rate,omitempty"`
	// Runs is the repetition count per measurement (default 1).
	Runs int `json:"runs,omitempty"`
	// Faults is an optional deterministic fault plan applied to every
	// measurement in the campaign (see internal/chaos). The same plan
	// expands to the same event schedule on either backend.
	Faults    *chaos.Plan    `json:"faults,omitempty"`
	Workloads []WorkloadSpec `json:"workloads"`
}

// WorkloadSpec is one workload entry: an application or a synthetic
// structure, swept over explicit degrees, categories, or a parallelism
// enumeration strategy.
type WorkloadSpec struct {
	App       string `json:"app,omitempty"`
	Structure string `json:"structure,omitempty"`
	// Exactly one sweep source: Degrees, Categories, or Strategy+Variants.
	Degrees    []int    `json:"degrees,omitempty"`
	Categories []string `json:"categories,omitempty"`
	Strategy   string   `json:"strategy,omitempty"`
	Variants   int      `json:"variants,omitempty"`
}

// ParseSpec decodes and validates a campaign.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("controller: decode spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the campaign is runnable before any simulation starts.
func (s *Spec) Validate() error {
	if len(s.Workloads) == 0 {
		return fmt.Errorf("controller: spec %q has no workloads", s.Name)
	}
	if s.SUT != "" {
		if _, ok := backend.ProfileByName(s.SUT); !ok {
			return fmt.Errorf("controller: spec %q: unknown SUT %q", s.Name, s.SUT)
		}
	}
	for i, w := range s.Workloads {
		if _, err := New().Resolve(s.request(w)); err != nil {
			return fmt.Errorf("controller: workload %d: %w", i, err)
		}
		sweeps := 0
		if len(w.Degrees) > 0 {
			sweeps++
		}
		if len(w.Categories) > 0 {
			sweeps++
		}
		if w.Strategy != "" {
			sweeps++
		}
		if sweeps != 1 {
			return fmt.Errorf("controller: workload %d: exactly one of degrees, categories or strategy required", i)
		}
		for _, c := range w.Categories {
			if _, err := core.ParseCategory(c); err != nil {
				return fmt.Errorf("controller: workload %d: %w", i, err)
			}
		}
		if w.Strategy != "" {
			found := false
			for _, n := range workload.StrategyNames {
				if n == w.Strategy {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("controller: workload %d: unknown strategy %q", i, w.Strategy)
			}
			if w.Variants <= 0 {
				return fmt.Errorf("controller: workload %d: strategy sweep needs variants > 0", i)
			}
		}
	}
	return nil
}

// Shard splits the campaign into independently runnable sub-campaigns,
// one per swept measurement point, so the distributed fabric can fan a
// campaign out across workers (POST /api/jobs with "split": true).
// Degree and category sweeps shard into one campaign per point; a
// strategy sweep stays whole, because its enumeration is one seeded
// draw whose variants are not individually addressable. Every shard
// inherits the campaign's globals — SUT, backend, cluster, event rate,
// repetition count and fault plan — so N workers draining the shards
// produce exactly the records the in-process campaign would.
func (s *Spec) Shard() []Spec {
	var out []Spec
	for _, w := range s.Workloads {
		name := w.App
		if name == "" {
			name = w.Structure
		}
		switch {
		case len(w.Degrees) > 0:
			for _, d := range w.Degrees {
				sw := w
				sw.Degrees = []int{d}
				out = append(out, s.shard(fmt.Sprintf("%s/%s-p%d", s.Name, name, d), sw))
			}
		case len(w.Categories) > 0:
			for _, cat := range w.Categories {
				sw := w
				sw.Categories = []string{cat}
				out = append(out, s.shard(fmt.Sprintf("%s/%s-%s", s.Name, name, cat), sw))
			}
		default:
			out = append(out, s.shard(fmt.Sprintf("%s/%s-%s", s.Name, name, w.Strategy), w))
		}
	}
	return out
}

// shard clones the campaign globals around one workload entry. The
// Faults pointer is shared intentionally: plans are read-only after
// parse.
func (s *Spec) shard(name string, w WorkloadSpec) Spec {
	sub := *s
	sub.Name = name
	sub.Workloads = []WorkloadSpec{w}
	return sub
}

// request names one workload of the campaign as a single run; its
// plan is the base the workload's sweep varies.
func (s *Spec) request(w WorkloadSpec) Request {
	return Request{
		App:       w.App,
		Structure: w.Structure,
		Cluster:   s.Cluster,
		Backend:   s.Backend,
		EventRate: s.EventRate,
		Faults:    s.Faults,
	}
}

// RunSpec executes the campaign and returns one record per measurement.
func (c *Controller) RunSpec(ctx context.Context, spec *Spec) ([]metrics.RunRecord, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	run := *c
	if spec.SUT != "" {
		prof, _ := backend.ProfileByName(spec.SUT)
		cfg := prof.Config
		cfg.Duration = c.Cfg.Duration
		cfg.SourceBatches = c.Cfg.SourceBatches
		cfg.WarmupFraction = c.Cfg.WarmupFraction
		cfg.Seed = c.Cfg.Seed
		run.Cfg = cfg
	}
	if spec.Nodes > 0 {
		run.Nodes = spec.Nodes
	}
	if spec.Runs > 0 {
		run.Runs = spec.Runs
	}

	var records []metrics.RunRecord
	for _, w := range spec.Workloads {
		r, err := run.Resolve(spec.request(w))
		if err != nil {
			return nil, err
		}
		variants, err := r.Ctrl.expandWorkload(w, r.Plan, r.Cluster)
		if err != nil {
			return nil, err
		}
		for _, plan := range variants {
			rec, err := r.Ctrl.MeasureSpec(ctx, plan, r.Cluster, r.Spec)
			if err != nil {
				return nil, err
			}
			records = append(records, *rec)
		}
	}
	return records, nil
}

// expandWorkload materializes one workload entry's sweep of the base
// plan into plans.
func (c *Controller) expandWorkload(w WorkloadSpec, base *core.PQP, cl *cluster.Cluster) ([]*core.PQP, error) {
	var out []*core.PQP
	switch {
	case len(w.Degrees) > 0:
		for _, d := range w.Degrees {
			v := base.Clone()
			v.SetUniformParallelism(d)
			out = append(out, v)
		}
	case len(w.Categories) > 0:
		for _, cs := range w.Categories {
			cat, err := core.ParseCategory(cs)
			if err != nil {
				return nil, err
			}
			v := base.Clone()
			v.SetUniformParallelism(cat.Degree())
			out = append(out, v)
		}
	default:
		enum := workload.NewEnumerator(c.Seed)
		strat, err := workload.StrategyByName(w.Strategy, enum.Rand())
		if err != nil {
			return nil, err
		}
		out = strat.Enumerate(base, cl, w.Variants)
	}
	return out, nil
}
