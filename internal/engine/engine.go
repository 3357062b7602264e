// Package engine is the real in-process execution backend of PDSP-Bench
// — the System Under Test role that Apache Flink plays in the paper. It
// turns a core.PQP into a running dataflow of parallel operator
// instances (one goroutine each) connected by bounded channels, with the
// paper's data-partitioning strategies (forward, rebalance, hashing),
// event-time tumbling/sliding windows under count and time policies,
// windowed equi-joins, and user-defined operators.
//
// Backpressure is intrinsic: channels are bounded, so a slow operator
// stalls its producers exactly as a real stream processor's bounded
// network buffers do.
package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pdspbench/internal/chaos"
	"pdspbench/internal/core"
	"pdspbench/internal/stats"
	"pdspbench/internal/tuple"
)

// SourceGenerator produces the tuples of one source instance. Next
// returns false at end of stream. Generators own their randomness so
// runs are reproducible from seeds.
type SourceGenerator interface {
	Next() (*tuple.Tuple, bool)
}

// SourceFactory builds the generator for source instance idx.
type SourceFactory func(idx int) SourceGenerator

// UDO is user-defined operator logic hosted by the engine. One UDO value
// serves one instance, so implementations may keep per-instance state
// without locking.
type UDO interface {
	// Process consumes one tuple and emits zero or more outputs.
	Process(t *tuple.Tuple, emit func(*tuple.Tuple))
	// Flush is called once at end-of-stream to drain retained state.
	Flush(emit func(*tuple.Tuple))
}

// UDOFactory builds the UDO for operator instance idx.
type UDOFactory func(idx int) UDO

// Options configure a Runtime.
type Options struct {
	// Sources maps source operator IDs to generator factories. Every
	// source in the plan must have one.
	Sources map[string]SourceFactory
	// UDOs maps UDO names (core.UDOSpec.Name) to factories.
	UDOs map[string]UDOFactory
	// ChannelCapacity bounds operator input channels (default 256). With
	// batching the effective tuple buffering per channel is
	// ChannelCapacity × BatchSize. Channels that carry column batches
	// are bounded in rows, not messages: they hold ChannelCapacity ×
	// BatchSize / ColumnarBatch batches (at least one). That is the same
	// number of in-flight rows only when the batches are full; partial
	// batches (a slow source's BatchSize-row batches, a ColumnUDO's last
	// batch per input batch, a join's out-batch shipped when idle) make
	// it an upper bound.
	ChannelCapacity int
	// BatchSize is how many tuples a router accumulates per downstream
	// target before a channel send (default 64). 1 disables batching:
	// every tuple ships in its own message, the pre-batching data plane.
	BatchSize int
	// BatchLinger bounds how long a partial batch may wait during a busy
	// stretch before being force-flushed (default 1ms). Partial batches
	// also flush whenever an operator's input runs momentarily dry and at
	// end-of-stream, so the linger boundary only matters under sustained
	// load with slow-filling batches.
	BatchLinger time.Duration
	// Throttle makes sources pace emission to the plan's event rate in
	// real time; unthrottled runs replay as fast as possible (the mode
	// functional tests use).
	Throttle bool
	// ChainOperators fuses forward-partitioned, equal-parallelism
	// operator runs into single instances (Flink task chaining),
	// replacing channel hops with function calls on the fused links.
	ChainOperators bool
	// RowPlane turns the columnar data plane off: every chain runs on
	// row tuples. The columnar plane is the default — sources fill
	// column batches whenever a consumer accepts them, and sink output
	// is the same multiset either way — so the row plane is the
	// reference the equivalence suites compare against. Throttle and
	// Faults force the row plane too: pacing and chaos injection are
	// per-row mechanisms.
	RowPlane bool
	// ColumnarBatch is the column batch row capacity (default 1024).
	ColumnarBatch int
	// WatermarkInterval is how many tuples a source emits between
	// periodic watermark assertions when its generator is not punctuated
	// (default 256). Punctuated generators (those implementing
	// Watermarker) emit whenever their assertion advances instead.
	WatermarkInterval int
	// AllowedLateness delays window firing past the watermark: a pane or
	// session fires only once the watermark passes its end plus this
	// allowance, so out-of-order tuples arriving within the allowance are
	// still absorbed. Tuples arriving beyond it are dropped and counted
	// in Report.LateDrops — never silently reordered.
	AllowedLateness time.Duration
	// SinkTap, when set, receives every tuple delivered to a sink (after
	// metrics are recorded). Used by examples to print results.
	SinkTap func(op string, t *tuple.Tuple)
	// Faults is the resolved chaos schedule to replay against this run
	// (event times are seconds from Run start on the wall clock). Empty
	// means no fault machinery is armed and the data plane is untouched.
	Faults []chaos.Event
	// MaxRestarts bounds budgeted revivals per instance (injected
	// crashes and genuine panics); zero or negative disables restarts.
	// Node-down outages revive on schedule without consuming budget.
	MaxRestarts int
	// RestartDelay is the base revival backoff (default 20ms); it
	// doubles per consecutive budgeted restart of the same instance.
	RestartDelay time.Duration
}

// Report is what a run measures — the same metrics the paper collects.
type Report struct {
	// Latency percentiles in seconds over sink deliveries.
	LatencyP50, LatencyP95, LatencyP99, LatencyMean float64
	// Throughput in tuples/s at the sinks over the wall-clock run.
	Throughput float64
	TuplesIn   uint64
	TuplesOut  uint64
	LateDrops  uint64
	// UDOPanics counts tuples dropped because a user-defined operator
	// panicked; the engine isolates such failures per tuple.
	UDOPanics uint64
	Elapsed   time.Duration
	// Columnar accounting (zero on the row plane): batches routed on the
	// columnar plane, and the subset that fell back to per-row
	// materialization because the receiving chain is row-only. A fallback
	// count > 0 means part of the plan executed on the row plane —
	// automatic, but visible.
	ColumnarBatches         uint64
	ColumnarFallbackBatches uint64
	// Fault accounting (all zero unless Options.Faults was set):
	// primitive fault events applied, instance revivals, summed instance
	// downtime, and tuples processed by revived instance lives.
	FaultsInjected  uint64
	Restarts        uint64
	Downtime        time.Duration
	RecoveredTuples uint64
	// PerOperator records tuples consumed and emitted by every logical
	// operator, summed over its instances — the per-operator counters the
	// paper's metric collection exposes alongside end-to-end latency.
	PerOperator map[string]OperatorStats
}

// OperatorStats are one operator's aggregate counters. InstanceIn
// holds the tuples each parallel instance consumed, by instance index:
// how evenly the partitioning spread the operator's input.
type OperatorStats struct {
	In         uint64
	Out        uint64
	InstanceIn []uint64
}

// Runtime is a deployed dataflow.
type Runtime struct {
	plan *core.PQP
	opts Options

	insts map[string][]*opInstance
	// chainHead maps every operator ID to the head of the chain hosting
	// it; faults target logical operators, which chaining may have fused.
	chainHead map[string]string
	// linkFaults holds the shared link-fault state per targeted
	// downstream chain head (nil map unless the schedule has link events).
	linkFaults map[string]*linkFault
	faultWG    sync.WaitGroup
	report     reportState
	// columnar is true unless RowPlane, Throttle or Faults force the row
	// plane.
	columnar bool
	// needsWM is true when some operator consumes watermarks (time-policy
	// window, session, or time-windowed join). Plans without one are
	// arrival-driven end to end, and sources skip watermark emission: the
	// markers would only add channel traffic nobody advances on.
	needsWM bool
}

// needsWatermarks reports whether any operator in the plan fires or
// evicts on watermark advance. Session windows are always time-policy,
// so checking Window.Policy covers them too.
func needsWatermarks(plan *core.PQP) bool {
	for _, op := range plan.Operators {
		if op.Agg != nil && op.Agg.Window.Policy == core.PolicyTime {
			return true
		}
		if op.Join != nil && op.Join.Window.Policy == core.PolicyTime {
			return true
		}
	}
	return false
}

type reportState struct {
	mu        sync.Mutex
	latencies *stats.Sample
	tuplesIn  uint64
	tuplesOut uint64
	lateDrops uint64
	udoPanics uint64
	lastPanic error

	faultsInjected  uint64
	restarts        uint64
	downtime        time.Duration
	recoveredTuples uint64
	deadOf          map[string]int // op → instances dead for good
	fatal           error          // *chaos.FaultError when an operator fully died
}

// New validates the plan and wires the runtime (goroutines start in Run).
func New(plan *core.PQP, opts Options) (*Runtime, error) {
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if opts.ChannelCapacity <= 0 {
		opts.ChannelCapacity = 256
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 64
	}
	if opts.BatchLinger <= 0 {
		opts.BatchLinger = time.Millisecond
	}
	if opts.ColumnarBatch <= 0 {
		opts.ColumnarBatch = 1024
	}
	if opts.WatermarkInterval <= 0 {
		opts.WatermarkInterval = 256
	}
	for _, src := range plan.Sources() {
		if _, ok := opts.Sources[src.ID]; !ok {
			return nil, fmt.Errorf("engine: no source generator for %q", src.ID)
		}
	}
	for _, op := range plan.Operators {
		if op.Kind == core.OpUDO && op.UDO == nil {
			return nil, fmt.Errorf("engine: UDO operator %q has no spec", op.ID)
		}
		// Map, flat-map and UDO operators run the UDO their spec names;
		// instances build it from its factory when they start.
		hostsUDO := op.Kind == core.OpUDO || op.Kind == core.OpMap || op.Kind == core.OpFlatMap
		if hostsUDO && op.UDO != nil {
			if _, ok := opts.UDOs[op.UDO.Name]; !ok {
				return nil, fmt.Errorf("engine: no UDO implementation registered for %q", op.UDO.Name)
			}
		}
	}
	r := &Runtime{
		plan:    plan,
		opts:    opts,
		insts:   make(map[string][]*opInstance),
		needsWM: needsWatermarks(plan),
		// Pacing and fault injection act per row; the columnar plane
		// would bypass both.
		columnar: !opts.RowPlane && !opts.Throttle && len(opts.Faults) == 0,
	}
	r.report.latencies = stats.NewSample(4096)
	if err := r.build(); err != nil {
		return nil, err
	}
	if len(opts.Faults) > 0 {
		r.setupFaults()
	}
	return r, nil
}

// build creates instances (one set per operator chain) and routing
// tables between chain boundaries.
func (r *Runtime) build() error {
	chains, err := buildChains(r.plan, r.opts.ChainOperators)
	if err != nil {
		return err
	}
	// Create instances per chain, keyed by the chain head's operator ID.
	tails := make(map[string]string, len(chains)) // head → tail op ID
	r.chainHead = make(map[string]string, len(r.plan.Operators))
	for _, chain := range chains {
		head := r.plan.Op(chain[0])
		ops := make([]*core.Operator, len(chain))
		for i, id := range chain {
			ops[i] = r.plan.Op(id)
			r.chainHead[id] = head.ID
		}
		insts := make([]*opInstance, head.Parallelism)
		colOK := r.columnar && head.Kind != core.OpSource && chainAcceptsColumns(ops, r.opts.UDOs)
		for i := range insts {
			insts[i] = newOpInstance(r, ops, i)
			insts[i].colOK = colOK
		}
		r.insts[head.ID] = insts
		tails[head.ID] = chain[len(chain)-1]
	}
	// Wire chain tails to downstream chain heads. Every external consumer
	// of a chain tail is itself a chain head: a fused operator's single
	// producer is its chain predecessor, so edges leaving a chain can
	// only land on heads. Join sides follow the plan's edge order.
	for headID, insts := range r.insts {
		tailID := tails[headID]
		tailOp := r.plan.Op(tailID)
		for _, downID := range r.plan.Downstream(tailID) {
			down := r.plan.Op(downID)
			targets, ok := r.insts[downID]
			if !ok {
				return fmt.Errorf("engine: internal error: edge %s→%s lands inside a chain", tailID, downID)
			}
			side := 0
			if down.Kind == core.OpJoin {
				for i, u := range r.plan.Upstream(downID) {
					if u == tailID {
						side = i % 2
					}
				}
			}
			// Watermark slots: every target keeps one watermark per
			// producing instance per side. This edge's producers claim the
			// next tailOp.Parallelism slots — read the base before the
			// expectEOS bump that reserves them.
			base := int32(targets[0].expectEOS[side])
			for _, inst := range insts {
				nr := newRouter(down, targets, side, inst.idx, r.opts.BatchSize)
				nr.wmID = base + int32(inst.idx)
				inst.routes = append(inst.routes, nr)
			}
			for _, dinst := range targets {
				dinst.expectEOS[side] += tailOp.Parallelism
			}
		}
	}
	// Columnar sources and tail joins produce column batches only when
	// some route leads to a chain where columns pay (see columnsPay);
	// otherwise the row path avoids a fill-then-materialize round trip
	// per tuple. A join qualifies only as a single-op chain (joins are
	// always chain heads; with fused followers its output must flow
	// through the row chain).
	if !r.columnar {
		return nil
	}
	pays := r.columnsPay(chains)
	for id, insts := range r.insts {
		kind := r.plan.Op(id).Kind
		if kind != core.OpSource && kind != core.OpJoin {
			continue
		}
		for _, inst := range insts {
			if kind == core.OpJoin && len(inst.chain) != 1 {
				break
			}
			for _, rt := range inst.routes {
				if rt.colOK && pays[rt.targets[0].head().ID] {
					if kind == core.OpSource {
						inst.colSrc = true
					} else {
						inst.colJoin = true
					}
					break
				}
			}
		}
	}
	r.boundColumnChannels(chains)
	return nil
}

// columnsPay reports, per chain head, whether column batches reaching
// the chain are consumed natively: by a sink (no boxing), a ColumnUDO
// (no tuple per output) or a count window (folded off the slabs) in the
// chain itself or in a column-accepting chain downstream. A stretch of
// filters that ends in the row fallback costs a row-to-column copy at
// its producer and a column-to-row copy at the fallback, more than its
// kernels save, so sources and joins feeding only such stretches stay
// on rows. Chains are visited in reverse topological order.
func (r *Runtime) columnsPay(chains [][]string) map[string]bool {
	pays := make(map[string]bool, len(chains))
	for i := len(chains) - 1; i >= 0; i-- {
		inst := r.insts[chains[i][0]][0]
		if !inst.colOK {
			continue
		}
		p := false
		for _, c := range inst.chain {
			// A UDO on a column-accepting chain is a ColumnUDO.
			p = p || c.op.Kind == core.OpSink || c.op.Kind == core.OpAggregate || c.op.UDO != nil
		}
		for _, rt := range inst.routes {
			p = p || (rt.colOK && pays[rt.targets[0].head().ID])
		}
		pays[chains[i][0]] = p
	}
	return pays
}

// boundColumnChannels sizes the input channel of every chain fed only
// column batches in rows rather than messages: ChannelCapacity ×
// BatchSize / ColumnarBatch full batches hold as many rows as the row
// plane's ChannelCapacity batches of BatchSize tuples, and partial
// batches hold fewer (see Options.ChannelCapacity). Chains are
// visited in topological order, so each knows whether all of its
// producers ship columns.
func (r *Runtime) boundColumnChannels(chains [][]string) {
	slots := r.opts.ChannelCapacity * r.opts.BatchSize / r.opts.ColumnarBatch
	if slots < 1 {
		slots = 1
	}
	shipsColumns := make(map[string]bool, len(chains)) // chain head → output is column batches
	for _, chain := range chains {
		head := chain[0]
		inst := r.insts[head][0]
		switch {
		case inst.colSrc || inst.colJoin:
			shipsColumns[head] = true
			continue
		case !inst.colOK:
			continue
		}
		fed := true
		for _, up := range r.plan.Upstream(head) {
			fed = fed && shipsColumns[r.chainHead[up]]
		}
		if !fed {
			continue
		}
		for _, oi := range r.insts[head] {
			oi.in = make(chan message, slots)
		}
		shipsColumns[head] = !holdsWindow(inst.chain)
	}
}

// Run starts every instance, drives the sources to completion (or ctx
// cancellation) and returns the measured report.
func (r *Runtime) Run(ctx context.Context) (*Report, error) {
	start := time.Now()
	var cancelFaults context.CancelFunc
	if len(r.opts.Faults) > 0 {
		var fctx context.Context
		fctx, cancelFaults = context.WithCancel(ctx)
		r.faultWG.Add(1)
		go func() {
			defer r.faultWG.Done()
			r.driveFaults(fctx, start)
		}()
	}
	var wg sync.WaitGroup
	for _, insts := range r.insts {
		for _, inst := range insts {
			wg.Add(1)
			go func(inst *opInstance) {
				defer wg.Done()
				r.supervise(ctx, inst)
			}(inst)
		}
	}
	wg.Wait()
	if cancelFaults != nil {
		cancelFaults()
		r.faultWG.Wait()
	}
	elapsed := time.Since(start)

	r.report.mu.Lock()
	defer r.report.mu.Unlock()
	rep := &Report{
		PerOperator: make(map[string]OperatorStats, len(r.insts)),
		LatencyP50:  r.report.latencies.Quantile(0.5),
		LatencyP95:  r.report.latencies.Quantile(0.95),
		LatencyP99:  r.report.latencies.Quantile(0.99),
		LatencyMean: r.report.latencies.Mean(),
		TuplesIn:    r.report.tuplesIn,
		TuplesOut:   r.report.tuplesOut,
		LateDrops:   r.report.lateDrops,
		UDOPanics:   r.report.udoPanics,
		Elapsed:     elapsed,

		FaultsInjected:  r.report.faultsInjected,
		Restarts:        r.report.restarts,
		Downtime:        r.report.downtime,
		RecoveredTuples: r.report.recoveredTuples,
	}
	for _, insts := range r.insts {
		for _, inst := range insts {
			for _, c := range inst.chain {
				s := rep.PerOperator[c.op.ID]
				s.In += c.nIn
				s.Out += c.nOut
				if s.InstanceIn == nil {
					s.InstanceIn = make([]uint64, len(insts))
				}
				s.InstanceIn[inst.idx] = c.nIn
				rep.PerOperator[c.op.ID] = s
			}
			for _, route := range inst.routes {
				rep.ColumnarBatches += route.colBatches
				rep.ColumnarFallbackBatches += route.colFallback
			}
		}
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.Throughput = float64(rep.TuplesOut) / secs
	}
	if ctx.Err() != nil && ctx.Err() != context.Canceled {
		return rep, ctx.Err()
	}
	if r.report.fatal != nil {
		return rep, r.report.fatal
	}
	return rep, nil
}

func (r *Runtime) recordIngest(n uint64) {
	r.report.mu.Lock()
	r.report.tuplesIn += n
	r.report.mu.Unlock()
}

// recordUDOPanic counts an isolated user-operator failure; the caller
// re-wraps the recovered value into a typed *CrashError so the cause
// survives on the error plane.
func (r *Runtime) recordUDOPanic(err *CrashError) {
	r.report.mu.Lock()
	r.report.udoPanics++
	r.report.lastPanic = err
	r.report.mu.Unlock()
}

func (r *Runtime) recordLateDrop() {
	r.report.mu.Lock()
	r.report.lateDrops++
	r.report.mu.Unlock()
}
