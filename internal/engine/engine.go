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
	// RowPlane turns the columnar data plane off: every operator runs on
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
	// materialization because the receiving operator is row-only. A
	// fallback count > 0 means part of the plan executed on the row
	// plane — automatic, but visible.
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
	// linkFaults holds the shared link-fault state per targeted
	// downstream operator (nil map unless the schedule has link events).
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

// build creates the instances of every operator and the routes between
// them.
func (r *Runtime) build() error {
	order, err := r.plan.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range order {
		op := r.plan.Op(id)
		insts := make([]*opInstance, op.Parallelism)
		colOK := r.columnar && op.Kind != core.OpSource && acceptsColumns(op, r.opts.UDOs)
		for i := range insts {
			insts[i] = newOpInstance(r, op, i)
			insts[i].colOK = colOK
		}
		r.insts[id] = insts
	}
	// Join sides follow the plan's edge order.
	for _, id := range order {
		op := r.plan.Op(id)
		for _, downID := range r.plan.Downstream(id) {
			down := r.plan.Op(downID)
			targets := r.insts[downID]
			side := 0
			if down.Kind == core.OpJoin {
				for i, u := range r.plan.Upstream(downID) {
					if u == id {
						side = i % 2
					}
				}
			}
			// Watermark slots: every target keeps one watermark per
			// producing instance per side. This edge's producers claim the
			// next op.Parallelism slots — read the base before the
			// expectEOS bump that reserves them.
			base := int32(targets[0].expectEOS[side])
			for _, inst := range r.insts[id] {
				nr := newRouter(down, targets, side, inst.idx, r.opts.BatchSize)
				nr.wmID = base + int32(inst.idx)
				inst.routes = append(inst.routes, nr)
			}
			for _, dinst := range targets {
				dinst.expectEOS[side] += op.Parallelism
			}
		}
	}
	// Columnar sources and joins produce column batches only when some
	// route leads to an operator where columns pay (see columnsPay);
	// otherwise the row path avoids a fill-then-materialize round trip
	// per tuple.
	if !r.columnar {
		return nil
	}
	pays := r.columnsPay(order)
	for id, insts := range r.insts {
		kind := r.plan.Op(id).Kind
		if kind != core.OpSource && kind != core.OpJoin {
			continue
		}
		for _, inst := range insts {
			for _, rt := range inst.routes {
				if rt.colOK && pays[rt.targets[0].op.ID] {
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
	r.boundColumnChannels(order)
	return nil
}

// columnsPay reports, per operator, whether column batches reaching it
// are consumed natively: by a sink (no boxing), a ColumnUDO (no tuple
// per output) or a count window (folded off the slabs), itself or in a
// column-accepting operator downstream. A stretch of filters that ends
// in the row fallback costs a row-to-column copy at its producer and a
// column-to-row copy at the fallback, more than its kernels save, so
// sources and joins feeding only such stretches stay on rows. Operators
// are visited in reverse topological order.
func (r *Runtime) columnsPay(order []string) map[string]bool {
	pays := make(map[string]bool, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		inst := r.insts[order[i]][0]
		if !inst.colOK {
			continue
		}
		// A UDO on a column-accepting operator is a ColumnUDO.
		kind := inst.op.Kind
		p := kind == core.OpSink || kind == core.OpAggregate || inst.op.UDO != nil
		for _, rt := range inst.routes {
			p = p || (rt.colOK && pays[rt.targets[0].op.ID])
		}
		pays[order[i]] = p
	}
	return pays
}

// boundColumnChannels sizes the input channel of every operator fed only
// column batches in rows rather than messages: ChannelCapacity ×
// BatchSize / ColumnarBatch full batches hold as many rows as the row
// plane's ChannelCapacity batches of BatchSize tuples, and partial
// batches hold fewer (see Options.ChannelCapacity). Operators are
// visited in topological order, so each knows whether all of its
// producers ship columns.
func (r *Runtime) boundColumnChannels(order []string) {
	slots := r.opts.ChannelCapacity * r.opts.BatchSize / r.opts.ColumnarBatch
	if slots < 1 {
		slots = 1
	}
	shipsColumns := make(map[string]bool, len(order)) // operator → output is column batches
	for _, id := range order {
		inst := r.insts[id][0]
		switch {
		case inst.colSrc || inst.colJoin:
			shipsColumns[id] = true
			continue
		case !inst.colOK:
			continue
		}
		fed := true
		for _, up := range r.plan.Upstream(id) {
			fed = fed && shipsColumns[up]
		}
		if !fed {
			continue
		}
		for _, oi := range r.insts[id] {
			oi.in = make(chan message, slots)
		}
		// A column-accepting count window emits its results as rows.
		shipsColumns[id] = inst.op.Kind != core.OpAggregate
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
	for id, insts := range r.insts {
		s := OperatorStats{InstanceIn: make([]uint64, len(insts))}
		for _, inst := range insts {
			s.In += inst.nIn
			s.Out += inst.nOut
			s.InstanceIn[inst.idx] = inst.nIn
			for _, route := range inst.routes {
				rep.ColumnarBatches += route.colBatches
				rep.ColumnarFallbackBatches += route.colFallback
			}
		}
		rep.PerOperator[id] = s
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
