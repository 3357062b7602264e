package backend

import (
	"context"
	"sort"
	"sync"
	"testing"

	"pdspbench/internal/engine"
	"pdspbench/internal/tuple"
)

// columnarTap collects the sink multiset fingerprint of one run.
type columnarTap struct {
	mu  sync.Mutex
	out []string
}

func (c *columnarTap) tap(_ string, t *tuple.Tuple) {
	c.mu.Lock()
	c.out = append(c.out, t.String())
	c.mu.Unlock()
}

func (c *columnarTap) sorted() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.out...)
	sort.Strings(out)
	return out
}

// TestColumnarBackendParity runs every DefaultParityCases plan on the
// real backend on the row plane and on the default columnar plane: the
// sink multisets
// must be identical, tuple for tuple. Plans run at parallelism 1 so the
// row plane itself is deterministic — with racing instances, channel
// interleaving perturbs float-sum order and watermark progress, and
// row-vs-row runs already diverge in the last ulp. Parallelism > 1
// columnar equivalence is covered at the engine layer, where plans can
// be shaped to keep per-instance arrival order deterministic.
func TestColumnarBackendParity(t *testing.T) {
	cases, err := DefaultParityCases()
	if err != nil {
		t.Fatal(err)
	}
	cl := testCluster()
	for _, pc := range cases {
		pc := pc
		t.Run(pc.Name, func(t *testing.T) {
			pc.Plan.SetUniformParallelism(1)
			run := func(rowPlane bool) []string {
				tap := &columnarTap{}
				spec := pc.Spec
				spec.SinkTap = tap.tap
				b := &Real{Opts: engine.Options{RowPlane: rowPlane, ChainOperators: true}}
				if _, err := b.Run(context.Background(), pc.Plan, cl, spec); err != nil {
					t.Fatalf("rowPlane=%v: %v", rowPlane, err)
				}
				return tap.sorted()
			}
			want := run(true)
			got := run(false)
			if len(want) == 0 {
				t.Fatalf("row run delivered no sink tuples")
			}
			if len(got) != len(want) {
				t.Fatalf("columnar delivered %d sink tuples, row delivered %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("sink multiset diverges at %d: columnar %q vs row %q", i, got[i], want[i])
				}
			}
		})
	}
}
