package controller

// Cross-backend consistency: the real engine (internal/engine) and the
// cluster simulator (internal/simengine) are two execution backends for
// the same PQP model. They measure different regimes (wall-clock laptop
// scale vs modelled cluster scale), but they must agree on orderings —
// which application does more work per tuple, which plan is heavier —
// or the simulator's cost calibration is fiction.

import (
	"context"
	"math"
	"testing"

	"pdspbench/internal/apps"
	"pdspbench/internal/backend"
	"pdspbench/internal/engine"
)

// perTupleCost runs an app on the real backend unthrottled and returns
// wall-clock seconds per input tuple — a direct measure of per-tuple
// CPU work.
func perTupleCost(t *testing.T, c *Controller, code string, tuples int) float64 {
	t.Helper()
	r, err := c.Resolve(Request{App: code, Parallelism: 1, Backend: "real", EventRate: backend.DefaultEventRate})
	if err != nil {
		t.Fatal(err)
	}
	r.Spec.Seed = 3
	r.Spec.TuplesPerSource = tuples
	rec, err := r.Ctrl.MeasureSpec(context.Background(), r.Plan, r.Cluster, r.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TuplesIn == 0 {
		t.Fatalf("%s consumed nothing", code)
	}
	return rec.ElapsedSec / float64(rec.TuplesIn)
}

func TestRealEngineAndSimulatorAgreeOnAppOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	// Real engine: per-tuple work of the data-intensive SA vs the light
	// TPCH pipeline.
	c := tiny()
	saReal := perTupleCost(t, c, "SA", 20_000)
	tpchReal := perTupleCost(t, c, "TPCH", 20_000)
	if saReal <= tpchReal {
		t.Skipf("real-engine costs inverted on this machine (SA %.2g vs TPCH %.2g); machine noise", saReal, tpchReal)
	}

	// Simulator: under identical load and parallelism, the app with more
	// per-tuple work must show the higher latency.
	sa := measureApp(t, c, "SA", 2)
	tpch := measureApp(t, c, "TPCH", 2)
	if sa <= tpch {
		t.Errorf("simulator inverts the real engine's ordering: SA %.3fs vs TPCH %.3fs", sa, tpch)
	}
}

// TestRealEngineParallelismSpeedsUpHeavyApp checks what makes the
// simulator's Fig 3 effect possible on the real engine: at parallelism
// 4, a data-intensive app's work splits evenly across the instances, so
// four cores can share it. Each of SA's 4 scoring instances (rebalance
// partitioning) must consume its even share of the input within 15% —
// one column batch of 1 024 rows out of a 7 500-row share, should the
// scorer ever run on whole-batch round robin — and each of the 4
// hash-partitioned window instances must get its share of the scored
// tuples within 10% (500 user keys hashed over 4 instances; seed 5
// lands within 1.5%). The counts are
// deterministic, unlike the wall-clock race between runs at
// parallelism 1 and 4 this test used to assert.
func TestRealEngineParallelismSpeedsUpHeavyApp(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	app, err := apps.ByCode("SA")
	if err != nil {
		t.Fatal(err)
	}
	const par, tuples = 4, 30_000
	plan := app.Build(backend.DefaultEventRate)
	plan.SetUniformParallelism(par)
	rt, err := engine.New(plan, engine.Options{Sources: app.Sources(5, tuples), UDOs: app.UDOs()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		op  string
		tol float64
	}{{"score", 0.15}, {"agg", 0.10}} {
		st := rep.PerOperator[c.op]
		if len(st.InstanceIn) != par {
			t.Fatalf("%s: %d instance counts, want %d", c.op, len(st.InstanceIn), par)
		}
		if c.op == "score" && st.In != tuples {
			t.Fatalf("score consumed %d tuples, the source emitted %d", st.In, tuples)
		}
		t.Logf("%s per-instance input: %v", c.op, st.InstanceIn)
		share := float64(st.In) / par
		for i, n := range st.InstanceIn {
			if d := math.Abs(float64(n)-share) / share; d > c.tol {
				t.Errorf("%s instance %d consumed %d tuples, %.0f%% off its share %.0f (tolerance %.0f%%)",
					c.op, i, n, 100*d, share, 100*c.tol)
			}
		}
	}
}
