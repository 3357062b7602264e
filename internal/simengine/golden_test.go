package simengine

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"pdspbench/internal/chaos"
	"pdspbench/internal/cluster"
	"pdspbench/internal/core"
	"pdspbench/internal/workload"
)

// goldenSimDigest is the FNV-64a digest of the JSON-encoded Simulate
// results of goldenSimCases. It pins the simulator bit for bit: any
// change to routing, skew, join sides, windows or faults that moves a
// single float moves the digest.
const goldenSimDigest = "4e1aa4b187773ab6"

func goldenSimCases() []struct {
	name   string
	st     workload.Structure
	degree int
	tune   func(*workload.Params)
	faults []chaos.Event
} {
	zipfHash := func(p *workload.Params) {
		p.Distribution = "zipf"
		p.Partition = core.PartitionHash
	}
	return []struct {
		name   string
		st     workload.Structure
		degree int
		tune   func(*workload.Params)
		faults []chaos.Event
	}{
		{name: "linear zipf hash", st: workload.StructLinear, degree: 4, tune: zipfHash},
		{name: "2-way join hash", st: workload.StructTwoWayJoin, degree: 3, tune: func(p *workload.Params) { p.Partition = core.PartitionHash }},
		{name: "2-way join zipf", st: workload.StructTwoWayJoin, degree: 2, tune: zipfHash},
		{name: "3-way join rebalance", st: workload.StructThreeJoin, degree: 2},
		{name: "3-way join hash", st: workload.StructThreeJoin, degree: 4, tune: func(p *workload.Params) { p.Partition = core.PartitionHash }},
		{name: "count window", st: workload.StructTwoFilter, degree: 3, tune: func(p *workload.Params) {
			p.Window = core.WindowSpec{Type: core.WindowTumbling, Policy: core.PolicyCount, LengthTups: 500}
			p.Partition = core.PartitionHash
		}},
		{name: "faults", st: workload.StructLinear, degree: 2, faults: []chaos.Event{
			{At: 2, Kind: chaos.KindCrash, Op: "filter1", Instance: 0},
			{At: 3, Kind: chaos.KindLinkDelay, Op: "sink", Factor: 0.01, Duration: 1},
			{At: 4, Kind: chaos.KindLinkDrop, Op: "sink", Factor: 0.2, Duration: 1},
		}},
	}
}

func TestGoldenSimulateDigest(t *testing.T) {
	cl := cluster.NewHomogeneous("ho", cluster.M510, 5)
	h := fnv.New64a()
	for _, c := range goldenSimCases() {
		p := params(50_000)
		if c.tune != nil {
			c.tune(&p)
		}
		plan, pl := buildAndPlace(t, c.st, p, c.degree, cl)
		cfg := fastCfg()
		if c.faults != nil {
			cfg = faultedCfg(c.faults, 1)
		}
		res, err := Simulate(plan, pl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%s\n", c.name, data)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenSimDigest {
		t.Errorf("Simulate digest = %s, want %s", got, goldenSimDigest)
	}
}
