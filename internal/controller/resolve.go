package controller

import (
	"errors"
	"fmt"

	"pdspbench/internal/apps"
	"pdspbench/internal/backend"
	"pdspbench/internal/chaos"
	"pdspbench/internal/cluster"
	"pdspbench/internal/core"
	"pdspbench/internal/workload"
)

// Request names one run the way every front end submits it: the CLI's
// run and dot flags, POST /api/run and GET /api/plan, and each workload
// of a campaign Spec. Resolve turns it into executable parts, so one
// request means one run whichever front end sent it.
type Request struct {
	// App (an application code) or Structure (a synthetic query
	// structure) names the workload; exactly one is required.
	App       string
	Structure string
	// Parallelism is the uniform operator degree; below 1 means 1.
	Parallelism int
	// Cluster is m510 (the default), c6525_25g, c6320 or mixed.
	Cluster string
	// EventRate is the source rate the plan is built at; 0 or less
	// keeps the controller's.
	EventRate float64
	// Backend names the execution backend; empty keeps the controller's.
	// A named sim backend runs with the controller's Cfg.
	Backend string
	// Faults, Disorder and AllowedLatenessMs go into the RunSpec;
	// Disorder is also stamped onto every source of the plan.
	Faults            *chaos.Plan
	Disorder          *core.DisorderSpec
	AllowedLatenessMs int64
}

// Run is a Request resolved to executable parts: measure it with
// Run.Ctrl.MeasureSpec(ctx, Run.Plan, Run.Cluster, Run.Spec).
type Run struct {
	// Ctrl is a copy of the resolving controller scoped to this run: its
	// EventRate and Backend are the request's.
	Ctrl    *Controller
	Plan    *core.PQP
	Cluster *cluster.Cluster
	// Spec carries the request's fault plan, disorder and lateness, and
	// the application (source generators and UDOs) for app workloads.
	Spec backend.RunSpec
}

// Resolve errors wrap one of these sentinels, so front ends can map
// them to a status (the server answers 404 and 400) without reading
// messages.
var (
	// ErrUnknownName marks an application or structure that does not exist.
	ErrUnknownName = errors.New("controller: unknown name")
	// ErrBadRequest marks a malformed request: an unknown cluster or
	// backend, an invalid disorder spec, or not exactly one of app and
	// structure.
	ErrBadRequest = errors.New("controller: bad request")
)

// resolveError keeps the underlying message and adds its sentinel.
type resolveError struct{ kind, err error }

func (e *resolveError) Error() string   { return e.err.Error() }
func (e *resolveError) Unwrap() []error { return []error{e.kind, e.err} }

// Resolve turns a named run into a run-scoped controller, a plan, a
// cluster and a RunSpec. It takes no lock and does no I/O; c is only
// read, so concurrent callers may share it.
func (c *Controller) Resolve(req Request) (*Run, error) {
	if (req.App == "") == (req.Structure == "") {
		return nil, &resolveError{ErrBadRequest, errors.New("exactly one of app or structure is required")}
	}
	ctrl := *c
	if req.EventRate > 0 {
		ctrl.EventRate = req.EventRate
	}
	if req.Backend != "" {
		b, err := backend.ByName(req.Backend)
		if err != nil {
			return nil, &resolveError{ErrBadRequest, err}
		}
		if sim, ok := b.(*backend.Sim); ok {
			sim.Cfg = ctrl.Cfg
		}
		ctrl.Backend = b
	}
	run := &Run{Ctrl: &ctrl, Spec: backend.RunSpec{
		Faults:            req.Faults,
		Disorder:          req.Disorder,
		AllowedLatenessMs: req.AllowedLatenessMs,
	}}
	switch req.Cluster {
	case "", "m510":
		run.Cluster = ctrl.Homogeneous()
	case "c6525_25g":
		run.Cluster = ctrl.HeteroEpyc()
	case "c6320":
		run.Cluster = ctrl.HeteroHaswell()
	case "mixed":
		run.Cluster = ctrl.Mixed()
	default:
		return nil, &resolveError{ErrBadRequest, fmt.Errorf("unknown cluster %q (m510, c6525_25g, c6320, mixed)", req.Cluster)}
	}
	if req.Disorder != nil {
		if err := req.Disorder.Validate(); err != nil {
			return nil, &resolveError{ErrBadRequest, err}
		}
	}
	par := max(req.Parallelism, 1)
	if req.App != "" {
		a, err := apps.ByCode(req.App)
		if err != nil {
			return nil, &resolveError{ErrUnknownName, err}
		}
		run.Plan = a.Build(ctrl.EventRate)
		run.Plan.SetUniformParallelism(par)
		run.Spec.App = a
	} else {
		st, err := workload.ParseStructure(req.Structure)
		if err != nil {
			return nil, &resolveError{ErrUnknownName, err}
		}
		if run.Plan, err = ctrl.SyntheticPlan(st, par); err != nil {
			return nil, err
		}
	}
	if req.Disorder != nil {
		for _, src := range run.Plan.Sources() {
			d := *req.Disorder
			src.Source.Disorder = &d
		}
	}
	return run, nil
}
