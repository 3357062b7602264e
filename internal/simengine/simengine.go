// Package simengine executes a parallel query plan on a modelled
// distributed cluster by discrete-event simulation.
//
// The paper measures Apache Flink on CloudLab at event rates up to 4M
// events/s and parallelism degrees up to 256 — a regime that cannot be
// reproduced in real time on one machine. This simulator replaces that
// testbed while preserving the mechanisms the paper's observations
// (O1–O7) derive from:
//
//   - per-instance queueing: each operator instance is a single server
//     with a FIFO queue; when arrival rate exceeds service rate the queue
//     (and hence end-to-end latency) grows — the latency collapse the
//     paper sees at low parallelism for data-intensive operators;
//   - CPU contention: when a node hosts more instances than cores,
//     service times inflate proportionally — the parallelism paradox
//     beyond the paper's 128-degree threshold;
//   - per-message fixed costs and network transfer time on links that
//     cross machines — the shuffle overhead of high fan-out hash
//     partitioning;
//   - window residence: windowed operators buffer input and fire on
//     their slide, so latency includes time spent waiting in windows;
//   - coordination: windowed/stateful operators pay a synchronization
//     cost growing with their parallelism degree (log-factor for standard
//     operators, linear for UDOs with heavy state, per their StateFactor)
//     — the reason the paper's AD application stops scaling.
//
// Tuples are simulated in batches: each simulated message carries a tuple
// count and the average source event time ("birth") of its constituents,
// so end-to-end latency (sink delivery time − birth) emerges from the
// simulation rather than being computed from a closed-form model.
package simengine

import (
	"fmt"
	"math"
	"math/rand"

	"pdspbench/internal/chaos"
	"pdspbench/internal/cluster"
	"pdspbench/internal/core"
	"pdspbench/internal/des"
	"pdspbench/internal/stats"
)

// Config tunes the simulation fidelity and the calibrated cost
// coefficients. Zero values are replaced by defaults (see Defaults).
type Config struct {
	// Duration is the simulated stream length in seconds.
	Duration float64
	// WarmupFraction of the run is discarded from latency statistics so
	// cold windows do not bias the median (the paper likewise runs
	// minutes and reports steady-state medians).
	WarmupFraction float64
	// SourceBatches is the target number of batches each source emits;
	// it trades fidelity for simulation speed.
	SourceBatches int
	// Seed makes runs reproducible; the paper averages three runs with
	// different seeds.
	Seed int64

	// AllowedLateness (seconds) mirrors the real engine's
	// Options.AllowedLateness on the simulated clock: time-policy window
	// firings are delayed by the watermark lag (source disorder skew plus
	// this allowance), and arrivals delayed beyond the allowance are
	// dropped and counted in Result.LateDrops.
	AllowedLateness float64

	// Faults is the resolved chaos schedule to replay on the simulated
	// clock (see internal/chaos); empty leaves the model fault-free.
	Faults []chaos.Event
	// MaxRestarts is the per-instance budget for budgeted crash
	// revivals; zero or negative disables restarts.
	MaxRestarts int
	// RestartDelay is the simulated seconds an instance stays down per
	// budgeted revival (default 0.02).
	RestartDelay float64

	// TupleCost is seconds of CPU per tuple per unit cost-factor on a
	// speed-1.0 core (m510 baseline).
	TupleCost float64
	// MsgCost is the fixed cost of handling one inbound message
	// (deserialization, buffer management).
	MsgCost float64
	// NetLatency is the one-way base network latency between nodes.
	NetLatency float64
	// BytesPerField approximates the wire size of one tuple field.
	BytesPerField float64
	// SyncCost is the per-firing coordination cost unit for windowed
	// operators; it is multiplied by log2(parallelism) for standard
	// operators and by parallelism × StateFactor for UDOs.
	SyncCost float64
	// KeyCardinality bounds distinct keys for keyed aggregations.
	KeyCardinality int
	// ZipfSkewShare is the extra load fraction the hottest partition
	// receives when the source distribution is "zipf".
	ZipfSkewShare float64
}

// Defaults returns the calibrated configuration used by the experiment
// harness. The coefficients were chosen so that a single filter at the
// paper's 100k events/s loads one m510 core at ~10% while a 6×-cost join
// with window maintenance saturates it — reproducing the regimes of
// Figures 3 and 4.
func Defaults() Config {
	return Config{
		Duration:       30,
		WarmupFraction: 0.2,
		SourceBatches:  240,
		Seed:           1,
		TupleCost:      1e-6,
		MsgCost:        60e-6,
		NetLatency:     0.3e-3,
		BytesPerField:  8,
		SyncCost:       250e-6,
		KeyCardinality: 1000,
		ZipfSkewShare:  0.25,
	}
}

func (c Config) withDefaults() Config {
	d := Defaults()
	if c.Duration <= 0 {
		c.Duration = d.Duration
	}
	if c.WarmupFraction <= 0 || c.WarmupFraction >= 1 {
		c.WarmupFraction = d.WarmupFraction
	}
	if c.SourceBatches <= 0 {
		c.SourceBatches = d.SourceBatches
	}
	if c.TupleCost <= 0 {
		c.TupleCost = d.TupleCost
	}
	if c.MsgCost <= 0 {
		c.MsgCost = d.MsgCost
	}
	if c.NetLatency <= 0 {
		c.NetLatency = d.NetLatency
	}
	if c.BytesPerField <= 0 {
		c.BytesPerField = d.BytesPerField
	}
	if c.SyncCost <= 0 {
		c.SyncCost = d.SyncCost
	}
	if c.KeyCardinality <= 0 {
		c.KeyCardinality = d.KeyCardinality
	}
	if c.ZipfSkewShare <= 0 {
		c.ZipfSkewShare = d.ZipfSkewShare
	}
	return c
}

// Result reports what the paper's metric collectors report.
type Result struct {
	// End-to-end latency in seconds over delivered batches after warm-up
	// (the paper reports the median of three runs' medians).
	LatencyP50  float64 `json:"latency_p50"`
	LatencyP95  float64 `json:"latency_p95"`
	LatencyP99  float64 `json:"latency_p99"`
	LatencyMean float64 `json:"latency_mean"`
	// Throughput is tuples delivered to sinks per simulated second.
	Throughput float64 `json:"throughput"`
	// TuplesIn/TuplesOut count tuples produced by sources and delivered.
	TuplesIn  float64 `json:"tuples_in"`
	TuplesOut float64 `json:"tuples_out"`
	// Saturated reports whether any instance's utilization reached 1
	// (backpressure regime).
	Saturated bool `json:"saturated"`
	// Utilization is the busiest instance's busy-time fraction per
	// logical operator.
	Utilization map[string]float64 `json:"utilization"`
	// Batches delivered to sinks after warmup (statistics support).
	DeliveredBatches int `json:"delivered_batches"`
	// Breakdown decomposes the mean end-to-end latency into where the
	// time was spent.
	Breakdown Breakdown `json:"breakdown"`

	// LateDrops counts tuples that arrived at a time-policy window or
	// join beyond the allowed lateness and were dropped (zero without
	// source disorder; provably zero for bounded disorder, whose delay
	// never exceeds the watermark skew).
	LateDrops float64 `json:"late_drops,omitempty"`

	// Fault accounting (all zero unless Config.Faults was set): fault
	// events applied, instance revivals, summed simulated downtime,
	// tuples re-routed to surviving siblings, and tuples lost to
	// crashes and drop windows.
	FaultsInjected  int     `json:"faults_injected,omitempty"`
	Restarts        int     `json:"restarts,omitempty"`
	DowntimeSec     float64 `json:"downtime_sec,omitempty"`
	RecoveredTuples float64 `json:"recovered_tuples,omitempty"`
	LostTuples      float64 `json:"lost_tuples,omitempty"`
}

// Breakdown is the mean end-to-end latency decomposition in seconds:
// queue waiting, service, network transfer, window residence, and the
// unattributed remainder (intra-batch arrival spread, firing delays).
type Breakdown struct {
	QueueWait float64 `json:"queue_wait"`
	Service   float64 `json:"service"`
	Network   float64 `json:"network"`
	Window    float64 `json:"window"`
	Other     float64 `json:"other"`
}

// batch is the unit of simulated dataflow.
type batch struct {
	count float64 // tuples represented
	birth float64 // average source event time of constituents (s)

	// Latency decomposition, accumulated as the batch flows: time spent
	// waiting in server queues, in service, on the network, and resident
	// in windows. The sink reports their batch-level means so a user can
	// see *where* end-to-end latency comes from.
	wait float64
	svc  float64
	net  float64
	win  float64

	enqueuedAt float64 // set on enqueue; consumed when service starts
}

// instance is one physical operator instance: a single-server FIFO queue.
type instance struct {
	op      *core.Operator
	idx     int
	node    cluster.Node
	speed   float64 // effective per-core speed after contention
	queue   ring[batch]
	busy    bool
	busyAcc float64 // accumulated busy seconds

	// serving is the batch in service; done fires at its completion.
	// Reusing one timer per instance keeps the serve→complete→serve
	// cycle free of per-batch closure allocations.
	serving     batch
	servingSide int
	done        *des.Timer

	// Chaos state (see fault.go): a down instance is temporarily out of
	// service, a dead one never returns; restartsLeft is its remaining
	// budget, baseSpeed its nominal speed for slow-node windows, and
	// stallUntil/resumeEmit pause and re-arm source emission.
	down         bool
	dead         bool
	restartsLeft int
	baseSpeed    float64
	stallUntil   float64
	resumeEmit   func()

	// Window state (aggregate/join). Joins keep two panes, one per input
	// side; sideQueue parallels queue to preserve the side through service.
	paneCount [2]float64
	paneBirth [2]float64 // count-weighted birth sum
	// Count-weighted latency-component sums of pane contents. paneWin is
	// the window time carried from upstream windows; paneArr is the
	// arrival time at this pane, so firing at time T adds (T − avg
	// arrival) of residence.
	paneWait  [2]float64
	paneSvc   [2]float64
	paneNet   [2]float64
	paneWin   [2]float64
	paneArr   [2]float64
	sideQueue ring[int]
	rrNext    int // round-robin pointer for rebalance routing
}

type edgeRoute struct {
	from, to  *core.Operator
	toInsts   []*instance
	partition core.PartitionStrategy
	side      int // join input side of the edge; 0 unless to is a join
}

type sim struct {
	cfg       Config
	plan      *core.PQP
	placement *cluster.Placement
	rng       *rand.Rand
	des       *des.Simulator

	insts  map[string][]*instance
	routes map[string][]edgeRoute // keyed by upstream op ID
	// zipf is set when any source draws keys from a zipf distribution;
	// hash splits then load the hottest partition with an extra share.
	zipf bool

	latencies  *stats.Sample
	tuplesIn   float64
	tuplesOut  float64
	warmupTime float64

	// Latency-component sums over delivered post-warmup batches.
	sumWait, sumSvc, sumNet, sumWin, sumTotal float64

	// Event-time state (see watermarks in internal/engine): wmLag is the
	// watermark's lag behind the stream frontier in simulated seconds
	// (max source disorder skew + allowed lateness), applied as a firing
	// delay on time-policy windows; lateFrac is the analytic fraction of
	// tuples whose disorder delay exceeds skew + lateness, dropped at
	// time-policy windowed operators and summed into lateDrops.
	wmLag     float64
	lateFrac  float64
	lateDrops float64

	// Chaos state (see fault.go). faultsArmed gates every fault check so
	// fault-free runs pay one boolean test on the perturbed paths.
	faultsArmed     bool
	restartDelay    float64
	fFaultsInjected int
	fRestarts       int
	fDowntime       float64
	fRerouted       float64
	fLost           float64
	fatal           error                 // *chaos.FaultError when an operator fully died
	linkDelay       map[string]linkWindow // keyed by downstream op ID
	linkDrop        map[string]linkWindow
}

// Simulate runs the plan on the placement and returns measured metrics.
func Simulate(plan *core.PQP, placement *cluster.Placement, cfg Config) (*Result, error) {
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("simengine: %w", err)
	}
	cfg = cfg.withDefaults()
	s := &sim{
		cfg:        cfg,
		plan:       plan,
		placement:  placement,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		des:        des.New(),
		insts:      make(map[string][]*instance),
		routes:     make(map[string][]edgeRoute),
		latencies:  stats.NewSample(4096),
		warmupTime: cfg.Duration * cfg.WarmupFraction,
	}
	if err := s.build(); err != nil {
		return nil, err
	}
	s.setupEventTime()
	if len(cfg.Faults) > 0 {
		s.setupFaults()
	}
	s.start()
	s.des.RunUntil(cfg.Duration)
	if s.fatal != nil {
		return nil, s.fatal
	}
	return s.results(), nil
}

// build instantiates operator instances with their contention-adjusted
// speeds and wires the routing tables.
func (s *sim) build() error {
	contention := s.nodeContention()
	for _, op := range s.plan.Operators {
		nodes, ok := s.placement.NodeOf[op.ID]
		if !ok || len(nodes) != op.Parallelism {
			return fmt.Errorf("simengine: placement missing %d instances of %q", op.Parallelism, op.ID)
		}
		insts := make([]*instance, op.Parallelism)
		for i := 0; i < op.Parallelism; i++ {
			node := s.placement.Cluster.Nodes[nodes[i]]
			inst := &instance{
				op:    op,
				idx:   i,
				node:  node,
				speed: node.Type.Speed() / contention[nodes[i]],
			}
			inst.done = s.des.NewTimer(func() { s.serveDone(inst) })
			insts[i] = inst
		}
		s.insts[op.ID] = insts
	}
	for _, e := range s.plan.Edges {
		from, to := s.plan.Op(e.From), s.plan.Op(e.To)
		side := 0
		if to.Kind == core.OpJoin {
			// Input order defines join sides: edge index 0 is the left input.
			for i, u := range s.plan.Upstream(to.ID) {
				if u == from.ID {
					side = i % 2
				}
			}
		}
		s.routes[e.From] = append(s.routes[e.From], edgeRoute{
			from: from, to: to, toInsts: s.insts[e.To], partition: to.Partition, side: side,
		})
	}
	for _, src := range s.plan.Sources() {
		if src.Source.Distribution == "zipf" {
			s.zipf = true
		}
	}
	return nil
}

// nodeContention estimates each node's CPU oversubscription: expected
// core demand divided by available cores, floored at 1. Demand counts
// what a real stream processor spends cycles on — per-tuple operator
// work, per-message handling (which multiplies under high-fan-out hash
// shuffles), window-firing synchronization that grows with parallelism,
// UDO state coordination, and a small per-instance upkeep (threads,
// network buffers). Instances that merely exist but carry no data cost
// almost nothing, unlike a naive instances-per-core ratio.
func (s *sim) nodeContention() []float64 {
	const instanceUpkeep = 0.003 // cores per idle instance
	nodes := s.placement.Cluster.Nodes
	demand := make([]float64, len(nodes))

	in, out := s.plan.InputRates(), s.plan.OutputRates()
	batchIn, batchOut := s.batchRates(in, out)

	for _, op := range s.plan.Operators {
		placedOn := s.placement.NodeOf[op.ID]
		p := float64(op.Parallelism)
		// Per-instance demands in baseline-core units.
		tupleWork := in[op.ID] / p * s.cfg.TupleCost * op.CostFactor()
		msgWork := batchIn[op.ID] / p * s.cfg.MsgCost
		fireWork := 0.0
		if w := op.WindowSpecOf(); w != nil {
			firingsPerInst := batchOut[op.ID] / p
			fireWork = firingsPerInst * s.cfg.SyncCost * (1 + math.Log2(p))
		}
		if op.UDO != nil && op.UDO.StateFactor > 0 {
			fireWork += batchIn[op.ID] / p * s.cfg.SyncCost * op.UDO.StateFactor * p
		}
		for _, n := range placedOn {
			speed := nodes[n].Type.Speed()
			demand[n] += (tupleWork+msgWork+fireWork)/speed + instanceUpkeep
		}
	}
	// Thread-switching inflation: past a few runnable threads per core,
	// context switches and cache pressure slow every service — the
	// mechanism behind the paper's parallelism paradox beyond degree 128.
	const switchFactor = 0.02
	perNode := s.placement.InstancesPerNode()
	contention := make([]float64, len(nodes))
	for i := range nodes {
		cores := float64(nodes[i].Type.Cores)
		c := demand[i] / cores
		if c < 1 {
			c = 1
		}
		threadsPerCore := float64(perNode[i]) / cores
		if threadsPerCore > 2 {
			c *= 1 + switchFactor*(threadsPerCore-2)
		}
		contention[i] = c
	}
	return contention
}

// batchRates propagates expected message (batch) rates through the plan:
// sources emit SourceBatches/Duration batches each; stateless operators
// forward one output batch per input batch; windowed operators emit one
// batch per instance per slide; hash edges split each emitted batch into
// up to min(parallelism, tuples-per-batch) messages.
func (s *sim) batchRates(tupleIn, tupleOut map[string]float64) (in, out map[string]float64) {
	in = make(map[string]float64, len(s.plan.Operators))
	out = make(map[string]float64, len(s.plan.Operators))
	order, err := s.plan.TopoOrder()
	if err != nil {
		return in, out
	}
	srcBatchRate := float64(s.cfg.SourceBatches) / s.cfg.Duration
	for _, id := range order {
		op := s.plan.Op(id)
		if op.Kind == core.OpSource {
			in[id] = srcBatchRate
			out[id] = srcBatchRate
			continue
		}
		var sum float64
		for _, u := range s.plan.Upstream(id) {
			split := 1.0
			if op.Partition == core.PartitionHash && out[u] > 0 {
				tuplesPerBatch := tupleOut[u] / out[u]
				split = math.Min(float64(op.Parallelism), math.Max(1, tuplesPerBatch))
			}
			sum += out[u] * split
		}
		in[id] = sum
		switch w := op.WindowSpecOf(); {
		case w == nil:
			out[id] = in[id]
		case w.Policy == core.PolicyCount:
			// Count windows fire once per slide-tuples of total input.
			if sl := w.Slide(); sl > 0 {
				out[id] = tupleIn[id] / sl
			}
		default: // time policy
			if slideSec := w.Slide() / 1000; slideSec > 0 {
				out[id] = float64(op.Parallelism) / slideSec
			}
		}
	}
	return in, out
}

// start schedules source emission and window firing timers.
func (s *sim) start() {
	for _, src := range s.plan.Sources() {
		rate := src.Source.EventRate
		perInst := rate / float64(src.Parallelism)
		batchSize := rate * s.cfg.Duration / float64(s.cfg.SourceBatches) / float64(src.Parallelism)
		if batchSize < 1 {
			batchSize = 1
		}
		for _, inst := range s.insts[src.ID] {
			s.scheduleEmit(inst, perInst, batchSize)
		}
	}
	for _, op := range s.plan.Operators {
		w := op.WindowSpecOf()
		if w == nil || w.Policy != core.PolicyTime {
			continue
		}
		slideSec := w.Slide() / 1000
		for _, inst := range s.insts[op.ID] {
			s.scheduleFiring(inst, slideSec)
		}
	}
}

// scheduleEmit produces source batches after exponential gaps (Poisson
// arrivals, the paper's traffic model). One reusable timer and closure
// serve every batch the instance emits; the RNG draw order matches the
// previous recursive scheduling exactly, so seeded runs are unchanged.
func (s *sim) scheduleEmit(inst *instance, rate, batchSize float64) {
	var tm *des.Timer
	var gap float64
	tm = s.des.NewTimer(func() {
		now := s.des.Now()
		if now > s.cfg.Duration {
			return
		}
		if s.faultsArmed {
			if inst.dead {
				return
			}
			if inst.down {
				return // resumeEmit re-arms on recovery
			}
			if inst.stallUntil > now {
				tm.Reset(inst.stallUntil - now)
				return
			}
		}
		b := batch{count: batchSize, birth: now - gap/2}
		s.tuplesIn += batchSize
		// Source work (generation/deserialization) occupies the source
		// instance before the batch is routed.
		s.enqueue(inst, b)
		gap = stats.Exponential(s.rng, rate/batchSize)
		tm.Reset(gap)
	})
	if s.faultsArmed {
		inst.resumeEmit = func() {
			gap = stats.Exponential(s.rng, rate/batchSize)
			tm.Reset(gap)
		}
	}
	gap = stats.Exponential(s.rng, rate/batchSize)
	tm.Reset(gap)
}

// scheduleFiring sets up the periodic slide timer of a time-policy
// window, reusing one timer per instance across all firings.
func (s *sim) scheduleFiring(inst *instance, slideSec float64) {
	var tm *des.Timer
	tm = s.des.NewTimer(func() {
		if s.des.Now() > s.cfg.Duration {
			return
		}
		if s.faultsArmed && inst.dead {
			return
		}
		if !(s.faultsArmed && inst.down) {
			s.fireWindow(inst)
		}
		tm.Reset(slideSec)
	})
	// The first firing waits out the watermark lag (disorder skew +
	// allowed lateness); the slide cadence then preserves the offset, so
	// every firing is wmLag behind its processing-time counterpart —
	// exactly the residence the real engine's watermark-driven panes add.
	tm.Reset(slideSec + s.wmLag)
}

// enqueue delivers a batch to an instance's server queue. Arrivals at a
// down or dead instance re-route to a surviving sibling (the rescaling
// a real deployment performs); with no sibling, a down instance queues
// the batch for its recovery while a dead one loses it.
func (s *sim) enqueue(inst *instance, b batch) {
	if s.faultsArmed && (inst.down || inst.dead) {
		if inst.op.Kind != core.OpJoin {
			if sib := s.aliveSiblingExcept(inst); sib != nil {
				s.fRerouted += b.count
				s.enqueue(sib, b)
				return
			}
		}
		if inst.dead {
			s.fLost += b.count
			return
		}
		b.enqueuedAt = s.des.Now()
		inst.queue.push(b)
		return
	}
	b.enqueuedAt = s.des.Now()
	inst.queue.push(b)
	if !inst.busy {
		s.serveNext(inst)
	}
}

// serveNext begins service of the head-of-queue batch; completion is the
// instance's reusable done timer, which calls serveDone.
func (s *sim) serveNext(inst *instance) {
	if inst.queue.len() == 0 {
		inst.busy = false
		return
	}
	inst.busy = true
	b := inst.queue.pop()
	b.wait += s.des.Now() - b.enqueuedAt
	st := s.serviceTime(inst, b)
	b.svc += st
	inst.busyAcc += st
	inst.serving = b
	inst.done.Reset(st)
}

// serveDone completes the in-service batch and starts the next one.
func (s *sim) serveDone(inst *instance) {
	if inst.op.Kind == core.OpJoin {
		s.dropLate(inst, &inst.serving)
		s.paneAdd(inst, inst.servingSide, inst.serving)
		w := inst.op.Join.Window
		if w.Policy == core.PolicyCount &&
			inst.paneCount[0] >= w.Slide() && inst.paneCount[1] >= w.Slide() {
			s.fireWindow(inst)
		}
		s.serveNextJoin(inst)
		return
	}
	s.process(inst, inst.serving)
	s.serveNext(inst)
}

// serviceTime is the CPU occupancy of one batch on this instance.
func (s *sim) serviceTime(inst *instance, b batch) float64 {
	perTuple := s.cfg.TupleCost * inst.op.CostFactor() / inst.speed
	return s.cfg.MsgCost/inst.speed + b.count*perTuple
}

// process applies the operator semantics to a served batch.
func (s *sim) process(inst *instance, b batch) {
	op := inst.op
	switch op.Kind {
	case core.OpSink:
		s.deliver(b)
	case core.OpAggregate:
		s.dropLate(inst, &b)
		s.paneAdd(inst, 0, b)
		if op.Agg.Window.Policy == core.PolicyCount && inst.paneCount[0] >= op.Agg.Window.Slide() {
			s.fireWindow(inst)
		}
	case core.OpFilter, core.OpMap, core.OpFlatMap, core.OpUDO, core.OpSource:
		out := b // keep birth and the accumulated latency components
		if op.Kind != core.OpSource {
			out.count = b.count * op.Selectivity()
		}
		if op.UDO != nil && op.UDO.StateFactor > 0 {
			// Stateful UDO: coordinate with sibling instances; this is the
			// linear-in-parallelism penalty behind the paper's O3/O5 AD
			// plateau.
			delay := s.cfg.SyncCost * op.UDO.StateFactor * float64(op.Parallelism) / inst.speed
			s.des.After(delay, func() { s.route(inst, out) })
			return
		}
		s.route(inst, out)
	}
}

// paneAdd accumulates a batch into an instance's window pane, retaining
// count-weighted sums of its latency components and its arrival time so
// fired outputs inherit them.
func (s *sim) paneAdd(inst *instance, side int, b batch) {
	inst.paneCount[side] += b.count
	inst.paneBirth[side] += b.birth * b.count
	inst.paneWait[side] += b.wait * b.count
	inst.paneSvc[side] += b.svc * b.count
	inst.paneNet[side] += b.net * b.count
	inst.paneWin[side] += b.win * b.count
	inst.paneArr[side] += s.des.Now() * b.count // residence starts now
}

// fireWindow emits the window result and slides the pane.
func (s *sim) fireWindow(inst *instance) {
	op := inst.op
	w := op.WindowSpecOf()
	if w == nil {
		return
	}
	now := s.des.Now()
	var out batch
	switch op.Kind {
	case core.OpAggregate:
		if inst.paneCount[0] <= 0 {
			return
		}
		n := inst.paneCount[0]
		outCount := 1.0
		if op.Agg.KeyField >= 0 {
			keysHere := float64(s.cfg.KeyCardinality) / float64(op.Parallelism)
			outCount = math.Min(n, math.Max(1, keysHere))
		}
		out = batch{
			count: outCount,
			birth: inst.paneBirth[0] / n,
			wait:  inst.paneWait[0] / n,
			svc:   inst.paneSvc[0] / n,
			net:   inst.paneNet[0] / n,
			win:   inst.paneWin[0]/n + (now - inst.paneArr[0]/n),
		}
	case core.OpJoin:
		l, r := inst.paneCount[0], inst.paneCount[1]
		if l <= 0 || r <= 0 {
			s.slidePanes(inst, w)
			return
		}
		matched := math.Min(l, r)
		total := l + r
		out = batch{
			count: matched,
			birth: (inst.paneBirth[0] + inst.paneBirth[1]) / total,
			wait:  (inst.paneWait[0] + inst.paneWait[1]) / total,
			svc:   (inst.paneSvc[0] + inst.paneSvc[1]) / total,
			net:   (inst.paneNet[0] + inst.paneNet[1]) / total,
			win:   (inst.paneWin[0]+inst.paneWin[1])/total + (now - (inst.paneArr[0]+inst.paneArr[1])/total),
		}
	default:
		return
	}
	s.slidePanes(inst, w)
	// Firing cost: merge/emit work plus coordination across the
	// operator's parallel instances (log-factor for standard operators).
	sync := s.cfg.SyncCost * (1 + math.Log2(float64(op.Parallelism))) / inst.speed
	emit := out.count * s.cfg.TupleCost * op.CostFactor() / inst.speed
	inst.busyAcc += sync + emit
	s.des.After(sync+emit, func() { s.route(inst, out) })
}

// slidePanes evicts pane content according to the window type: tumbling
// windows clear fully, sliding windows retain the non-slid fraction.
func (s *sim) slidePanes(inst *instance, w *core.WindowSpec) {
	retain := 0.0
	if w.Type == core.WindowSliding {
		r := w.SlideRatio
		if r <= 0 || r > 1 {
			r = 0.5
		}
		retain = 1 - r
	}
	for side := 0; side < 2; side++ {
		inst.paneCount[side] *= retain
		inst.paneBirth[side] *= retain
		inst.paneWait[side] *= retain
		inst.paneSvc[side] *= retain
		inst.paneNet[side] *= retain
		inst.paneWin[side] *= retain
		inst.paneArr[side] *= retain
	}
}

// route forwards an output batch along every outgoing edge.
func (s *sim) route(inst *instance, b batch) {
	if b.count <= 0 {
		return
	}
	routes := s.routes[inst.op.ID]
	for _, r := range routes {
		s.routeEdge(inst, r, b)
	}
}

// routeEdge applies the downstream operator's partition strategy.
func (s *sim) routeEdge(inst *instance, r edgeRoute, b batch) {
	switch r.partition {
	case core.PartitionForward:
		// Co-indexed local forwarding; mismatched degrees wrap around.
		dst := r.toInsts[inst.idx%len(r.toInsts)]
		s.send(inst, dst, b, r.side)
	case core.PartitionRebalance:
		dst := r.toInsts[inst.rrNext%len(r.toInsts)]
		inst.rrNext++
		s.send(inst, dst, b, r.side)
	case core.PartitionHash:
		s.hashSplit(inst, r, b)
	default:
		dst := r.toInsts[inst.rrNext%len(r.toInsts)]
		inst.rrNext++
		s.send(inst, dst, b, r.side)
	}
}

// hashSplit distributes a batch across downstream instances by key hash.
// When the batch has fewer tuples than there are target instances, only
// ~count partitions actually receive data (as in a real shuffle), so the
// split is thinned to keep event counts proportional to data volume.
func (s *sim) hashSplit(inst *instance, r edgeRoute, b batch) {
	p := len(r.toInsts)
	parts := p
	if b.count < float64(p) {
		parts = int(math.Max(1, b.count))
	}
	per := b.count / float64(parts)
	skewExtra := 0.0
	if s.zipf && parts > 1 {
		// The hottest partition absorbs an extra share of a skewed stream.
		skewExtra = b.count * s.cfg.ZipfSkewShare
		per = (b.count - skewExtra) / float64(parts)
	}
	start := s.rng.Intn(p)
	for i := 0; i < parts; i++ {
		dst := r.toInsts[(start+i)%p]
		part := b // keep birth and latency components
		part.count = per
		if i == 0 {
			part.count += skewExtra
		}
		s.send(inst, dst, part, r.side)
	}
}

// send moves a batch across the (possibly network) link and enqueues it
// at the destination, tagging join input sides.
func (s *sim) send(from, to *instance, b batch, side int) {
	delay := 0.0
	if s.faultsArmed {
		now := s.des.Now()
		if w, ok := s.linkDrop[to.op.ID]; ok && now < w.until {
			lost := b.count * w.amount
			s.fLost += lost
			b.count -= lost
			if b.count <= 0 {
				return
			}
		}
		if w, ok := s.linkDelay[to.op.ID]; ok && now < w.until {
			delay += w.amount
		}
	}
	if from.node.ID != to.node.ID {
		bw := math.Min(from.node.Type.NetGbps, to.node.Type.NetGbps) * 1e9 / 8 // bytes/s
		bytes := b.count * float64(maxInt(1, from.op.OutWidth)) * s.cfg.BytesPerField
		delay += s.cfg.NetLatency + bytes/bw
	}
	b.net += delay
	s.des.After(delay, func() {
		if to.op.Kind == core.OpJoin {
			s.enqueueJoin(to, b, side)
			return
		}
		s.enqueue(to, b)
	})
}

// enqueueJoin is enqueue with the join side preserved through service.
// Joins cannot re-route (partitioned state pins the input), so a dead
// join instance loses its arrivals and a down one queues them.
func (s *sim) enqueueJoin(inst *instance, b batch, side int) {
	if s.faultsArmed && inst.dead {
		s.fLost += b.count
		return
	}
	b.enqueuedAt = s.des.Now()
	inst.queue.push(b)
	// Sides are tracked by a parallel ring to keep batch lean.
	inst.sideQueue.push(side)
	if !inst.busy && !(s.faultsArmed && inst.down) {
		s.serveNextJoin(inst)
	}
}

// serveNextJoin mirrors serveNext for join instances; serveDone applies
// the pane semantics at completion.
func (s *sim) serveNextJoin(inst *instance) {
	if inst.queue.len() == 0 {
		inst.busy = false
		return
	}
	inst.busy = true
	b := inst.queue.pop()
	inst.servingSide = inst.sideQueue.pop()
	b.wait += s.des.Now() - b.enqueuedAt
	st := s.serviceTime(inst, b)
	b.svc += st
	inst.busyAcc += st
	inst.serving = b
	inst.done.Reset(st)
}

// deliver records a sink arrival.
func (s *sim) deliver(b batch) {
	now := s.des.Now()
	s.tuplesOut += b.count
	if now >= s.warmupTime {
		total := now - b.birth
		s.latencies.Add(total)
		s.sumWait += b.wait
		s.sumSvc += b.svc
		s.sumNet += b.net
		s.sumWin += b.win
		s.sumTotal += total
	}
}

// results assembles the Result.
func (s *sim) results() *Result {
	if s.latencies.Len() == 0 {
		// Total collapse: nothing reached a sink after warm-up. Every
		// in-flight tuple has been queued for up to the whole run, so
		// report the run duration as the (lower-bound) latency instead of
		// a misleading zero.
		s.latencies.Add(s.cfg.Duration)
	}
	r := &Result{
		LatencyP50:       s.latencies.Quantile(0.5),
		LatencyP95:       s.latencies.Quantile(0.95),
		LatencyP99:       s.latencies.Quantile(0.99),
		LatencyMean:      s.latencies.Mean(),
		Throughput:       s.tuplesOut / s.cfg.Duration,
		TuplesIn:         s.tuplesIn,
		TuplesOut:        s.tuplesOut,
		Utilization:      make(map[string]float64, len(s.insts)),
		DeliveredBatches: s.latencies.Len(),
		LateDrops:        s.lateDrops,

		FaultsInjected:  s.fFaultsInjected,
		Restarts:        s.fRestarts,
		DowntimeSec:     s.fDowntime,
		RecoveredTuples: s.fRerouted,
		LostTuples:      s.fLost,
	}
	for id, insts := range s.insts {
		var maxU float64
		for _, inst := range insts {
			u := inst.busyAcc / s.cfg.Duration
			if u > maxU {
				maxU = u
			}
		}
		r.Utilization[id] = maxU
		if maxU >= 0.98 {
			r.Saturated = true
		}
	}
	if n := float64(s.latencies.Len()); n > 0 {
		r.Breakdown = Breakdown{
			QueueWait: s.sumWait / n,
			Service:   s.sumSvc / n,
			Network:   s.sumNet / n,
			Window:    s.sumWin / n,
		}
		r.Breakdown.Other = s.sumTotal/n - r.Breakdown.QueueWait -
			r.Breakdown.Service - r.Breakdown.Network - r.Breakdown.Window
	}
	return r
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MedianOfRuns executes the simulation n times with distinct seeds and
// returns the mean of the runs' median latencies, the paper's reported
// statistic ("mean of three runs of measuring median latency").
func MedianOfRuns(plan *core.PQP, placement *cluster.Placement, cfg Config, runs int) (float64, []*Result, error) {
	if runs <= 0 {
		runs = 3
	}
	var sum float64
	results := make([]*Result, 0, runs)
	for i := 0; i < runs; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		res, err := Simulate(plan, placement, c)
		if err != nil {
			return 0, nil, err
		}
		sum += res.LatencyP50
		results = append(results, res)
	}
	return sum / float64(runs), results, nil
}
