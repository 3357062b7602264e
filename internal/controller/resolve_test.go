package controller

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"pdspbench/internal/backend"
	"pdspbench/internal/core"
)

func TestResolve(t *testing.T) {
	bounded := &core.DisorderSpec{Kind: core.DisorderBounded, MaxSkewMs: 50}
	cases := []struct {
		name    string
		req     Request
		wantErr error  // sentinel the error must wrap; nil means success
		cluster string // expected cluster name on success
		maxPar  int    // expected plan parallelism on success
	}{
		{"default cluster", Request{Structure: "linear", Parallelism: 2}, nil, "m510", 2},
		{"m510", Request{Structure: "linear", Parallelism: 2, Cluster: "m510"}, nil, "m510", 2},
		{"c6525_25g", Request{App: "SG", Parallelism: 32, Cluster: "c6525_25g"}, nil, "c6525_25g", 32},
		{"c6320", Request{App: "SG", Parallelism: 4, Cluster: "c6320"}, nil, "c6320", 4},
		{"mixed", Request{Structure: "3-way-join", Parallelism: 8, Cluster: "mixed"}, nil, "mixed", 8},
		{"unknown cluster", Request{Structure: "linear", Cluster: "moon"}, ErrBadRequest, "", 0},
		{"unknown app", Request{App: "ZZ"}, ErrUnknownName, "", 0},
		{"unknown structure", Request{Structure: "9-way-join"}, ErrUnknownName, "", 0},
		{"extension YSB", Request{App: "YSB", Parallelism: 3}, nil, "m510", 3},
		{"extension NXQ11", Request{App: "NXQ11", Parallelism: 2}, nil, "m510", 2},
		{"parallelism 0 clamps to 1", Request{Structure: "linear"}, nil, "m510", 1},
		{"both app and structure", Request{App: "SG", Structure: "linear"}, ErrBadRequest, "", 0},
		{"neither app nor structure", Request{Parallelism: 2}, ErrBadRequest, "", 0},
		{"unknown backend", Request{Structure: "linear", Backend: "flink"}, ErrBadRequest, "", 0},
		{"invalid disorder", Request{Structure: "linear", Disorder: &core.DisorderSpec{Kind: "chaotic", MaxSkewMs: 5}}, ErrBadRequest, "", 0},
		{"disorder", Request{Structure: "3-way-join", Parallelism: 2, Disorder: bounded, AllowedLatenessMs: 50}, nil, "m510", 2},
	}
	c := Fast()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := c.Resolve(tc.req)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want one wrapping %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if r.Cluster.Name != tc.cluster {
				t.Errorf("cluster %q, want %q", r.Cluster.Name, tc.cluster)
			}
			if got := r.Plan.MaxParallelism(); got != tc.maxPar {
				t.Errorf("parallelism %d, want %d", got, tc.maxPar)
			}
			if tc.req.App != "" && (r.Spec.App == nil || r.Spec.App.Code != tc.req.App) {
				t.Errorf("spec carries app %v, want %s", r.Spec.App, tc.req.App)
			}
			if tc.req.Structure != "" && r.Spec.App != nil {
				t.Errorf("structure run carries app %s", r.Spec.App.Code)
			}
			if r.Spec.AllowedLatenessMs != tc.req.AllowedLatenessMs {
				t.Errorf("lateness %d, want %d", r.Spec.AllowedLatenessMs, tc.req.AllowedLatenessMs)
			}
			srcs := r.Plan.Sources()
			for _, src := range srcs {
				d := src.Source.Disorder
				switch {
				case tc.req.Disorder == nil && tc.req.Structure != "" && d != nil:
					// Apps may carry their own (NXQ11 does); structures carry none.
					t.Errorf("source %s has disorder %+v, none requested", src.ID, d)
				case tc.req.Disorder != nil && (d == nil || *d != *tc.req.Disorder):
					t.Errorf("source %s has disorder %+v, want %+v", src.ID, d, tc.req.Disorder)
				}
			}
			if tc.req.Disorder != nil && (len(srcs) < 2 || srcs[0].Source.Disorder == srcs[1].Source.Disorder) {
				t.Errorf("want distinct disorder copies on each of several sources")
			}
		})
	}
}

func TestResolveScopesTheController(t *testing.T) {
	c := Fast()
	r, err := c.Resolve(Request{Structure: "linear", EventRate: 1234, Backend: "sim"})
	if err != nil {
		t.Fatal(err)
	}
	if c.EventRate != 500_000 || c.Backend != nil {
		t.Errorf("Resolve changed its controller: rate %v, backend %v", c.EventRate, c.Backend)
	}
	if r.Ctrl.EventRate != 1234 {
		t.Errorf("run rate %v, want 1234", r.Ctrl.EventRate)
	}
	if got := r.Plan.Sources()[0].Source.EventRate; got != 1234 {
		t.Errorf("plan built at %v events/s, want 1234", got)
	}
	// A named sim backend runs at the controller's fidelity, as the
	// default backend does, not at the simulator's defaults.
	sim, ok := r.Ctrl.Backend.(*backend.Sim)
	if !ok {
		t.Fatalf("backend %T, want *backend.Sim", r.Ctrl.Backend)
	}
	if !reflect.DeepEqual(sim.Cfg, c.Cfg) || reflect.DeepEqual(sim.Cfg, backend.SimDefaults()) {
		t.Errorf("sim backend config %+v, want the controller's %+v", sim.Cfg, c.Cfg)
	}
	real, err := c.Resolve(Request{App: "WC", Backend: "real"})
	if err != nil {
		t.Fatal(err)
	}
	if real.Ctrl.BackendName() != "real" || c.BackendName() != "sim" {
		t.Errorf("backends: run %s, controller %s", real.Ctrl.BackendName(), c.BackendName())
	}
}

// TestRealBackendCampaignRunsUDOApp is the regression test for
// campaigns on the real backend: the app's UDO implementations must
// reach the engine, or its instances call a nil factory.
func TestRealBackendCampaignRunsUDOApp(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"name":"real-wc","backend":"real","workloads":[{"app":"WC","degrees":[2]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Fast().RunSpec(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].TuplesIn == 0 || recs[0].Backend != "real" {
		t.Fatalf("records %+v, want one real-backend record with input", recs)
	}
}
