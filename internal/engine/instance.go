package engine

import (
	"context"
	"math"
	"sync"
	"time"

	"pdspbench/internal/core"
	"pdspbench/internal/tuple"
)

type msgKind int

const (
	msgData msgKind = iota
	msgEOS
	// msgWatermark is the event-time control element: the producer
	// asserts it will emit no further tuple with EventTime ≤ wm on this
	// channel. Receivers merge the minimum across all producers (see
	// noteWatermark in watermark.go) before advancing window state.
	msgWatermark
)

// message is one channel exchange between instances: a micro-batch of
// tuples (msgData), an end-of-stream marker (msgEOS), or a watermark
// (msgWatermark). Shipping batches instead of single tuples amortizes
// the channel send/receive pair — the dominant per-tuple cost of an
// unbatched data plane — across O(BatchSize) tuples, the same reason
// Flink ships record batches through its network buffers.
type message struct {
	kind msgKind
	b    *[]*tuple.Tuple
	// cb carries a columnar batch instead of b when the columnar plane
	// is active on this edge (exactly one of b/cb is set for msgData).
	cb   *tuple.ColumnBatch
	side int
	// from identifies the producing router's watermark slot on the
	// receiver's side (see router.wmID); wm is the asserted watermark
	// for msgWatermark messages.
	from int32
	wm   int64
}

// batchPool recycles the tuple-pointer slices routers flush downstream.
// The receiver returns the slice after unpacking it, so steady state
// allocates no batch buffers at all.
var batchPool = sync.Pool{
	New: func() any {
		b := make([]*tuple.Tuple, 0, 64)
		return &b
	},
}

func getBatch() *[]*tuple.Tuple { return batchPool.Get().(*[]*tuple.Tuple) }

func putBatch(b *[]*tuple.Tuple) {
	// Drop the tuple pointers so a pooled buffer does not retain tuples
	// that were released back to their own pool.
	for i := range *b {
		(*b)[i] = nil
	}
	*b = (*b)[:0]
	batchPool.Put(b)
}

// router delivers an upstream instance's output to the instances of one
// downstream chain under its head operator's partition strategy. Routing
// decisions stay per-tuple (so partitioning semantics are identical to
// the unbatched plane); only the channel send is batched, through one
// pending buffer per target instance.
type router struct {
	targets   []*opInstance
	strategy  core.PartitionStrategy
	side      int
	keyField  int
	rr        int
	batchSize int
	bufs      []*[]*tuple.Tuple // per-target pending batch, nil when empty
	pending   int               // tuples buffered across all targets
	// lf is the link-fault state of this route's downstream operator;
	// nil (the no-fault case) skips every fault check.
	lf *linkFault
	// sentEOS makes eos idempotent per target: a crashed instance's
	// supervisor may re-deliver end-of-stream, and a duplicate marker
	// would make the receiver finish while producers still run.
	sentEOS []bool
	// wmID is this producer's watermark slot index on the receiving
	// side: receivers keep one watermark per producing instance and
	// advance on the minimum across all of them (assigned in build).
	wmID int32

	// Columnar plane (see column.go). colOK records whether the target
	// chain accepts column batches; when false, sendColumns falls back
	// to per-row materialization through send. colBufs holds per-target
	// pending scatter batches for hash partitioning, colPending the rows
	// buffered across them; colBatches/colFallback count batches routed
	// and batches that fell back to the row plane.
	colOK bool
	// stateful: the target chain keeps window state, so a rebalance
	// onto it scatters row by row, as the row plane routes, instead of
	// shipping whole batches.
	stateful    bool
	colBufs     []*tuple.ColumnBatch
	colPending  int
	colBatches  uint64
	colFallback uint64
}

// newRouter resolves the hash key field for the downstream operator: the
// join field of the matching side for joins, the window key for keyed
// aggregations, field 0 otherwise.
func newRouter(down *core.Operator, targets []*opInstance, side, fromIdx, batchSize int) *router {
	key := 0
	switch down.Kind {
	case core.OpJoin:
		if down.Join != nil {
			if side == 0 {
				key = down.Join.LeftField
			} else {
				key = down.Join.RightField
			}
		}
	case core.OpAggregate:
		if down.Agg != nil && down.Agg.KeyField >= 0 {
			key = down.Agg.KeyField
		}
	}
	if batchSize <= 0 {
		batchSize = 1
	}
	return &router{
		targets:   targets,
		strategy:  down.Partition,
		side:      side,
		keyField:  key,
		rr:        fromIdx, // stagger round-robin start across producers
		batchSize: batchSize,
		bufs:      make([]*[]*tuple.Tuple, len(targets)),
		sentEOS:   make([]bool, len(targets)),
		colOK:     len(targets) > 0 && targets[0].colOK,
		stateful:  len(targets) > 0 && holdsWindow(targets[0].chain),
		colBufs:   make([]*tuple.ColumnBatch, len(targets)),
	}
}

// send routes one tuple into its target's pending batch, flushing the
// batch when full; it returns false if the context ended.
func (rt *router) send(ctx context.Context, fromIdx int, t *tuple.Tuple) bool {
	if rt.lf != nil && rt.lf.shouldDrop() {
		t.Release()
		return true
	}
	var di int
	switch rt.strategy {
	case core.PartitionForward:
		di = fromIdx % len(rt.targets)
	case core.PartitionHash:
		f := rt.keyField
		if f >= t.Width() {
			f = 0
		}
		di = int(t.At(f).Hash() % uint64(len(rt.targets)))
	default: // rebalance
		di = rt.rr % len(rt.targets)
		rt.rr++
	}
	b := rt.bufs[di]
	if b == nil {
		b = getBatch()
		rt.bufs[di] = b
	}
	*b = append(*b, t)
	rt.pending++
	if len(*b) >= rt.batchSize {
		return rt.flushTo(ctx, di)
	}
	return true
}

// flushTo ships target di's pending batch downstream.
func (rt *router) flushTo(ctx context.Context, di int) bool {
	b := rt.bufs[di]
	if b == nil {
		return true
	}
	rt.bufs[di] = nil
	rt.pending -= len(*b)
	if rt.lf != nil {
		rt.lf.applyDelay()
	}
	select {
	case rt.targets[di].in <- message{kind: msgData, b: b, side: rt.side, from: rt.wmID}:
		return true
	case <-ctx.Done():
		return false
	}
}

// flushAll ships every pending partial batch, row and columnar.
func (rt *router) flushAll(ctx context.Context) bool {
	if !rt.flushColAll(ctx) {
		return false
	}
	if rt.pending == 0 {
		return true
	}
	for di := range rt.bufs {
		if !rt.flushTo(ctx, di) {
			return false
		}
	}
	return true
}

// eos flushes pending batches, then notifies every downstream instance
// that this producer finished.
func (rt *router) eos(ctx context.Context) bool {
	if !rt.flushAll(ctx) {
		return false
	}
	for di, dst := range rt.targets {
		if rt.sentEOS[di] {
			continue
		}
		select {
		case dst.in <- message{kind: msgEOS, side: rt.side, from: rt.wmID}:
			rt.sentEOS[di] = true
		case <-ctx.Done():
			return false
		}
	}
	return true
}

// opInstance executes one parallel instance of an operator chain (a
// single operator unless Options.ChainOperators fused several).
type opInstance struct {
	rt    *Runtime
	chain []*chainedOp
	idx   int
	ctx   context.Context // the run's context, set once at goroutine start
	// flt is this instance's chaos state; nil (the no-fault case) makes
	// every fault check a single pointer comparison.
	flt *instFault

	in        chan message
	routes    []*router
	expectEOS [2]int
	gotEOS    [2]int
	seq       uint64

	// Event-time state (watermark.go): wmIn holds the latest watermark
	// asserted by each upstream producer, per input side; curWM is the
	// merged minimum — the instance's own clock — which advances the
	// chain's window state and is forwarded downstream.
	wmIn  [2][]int64
	curWM int64

	// colOK: this chain accepts column batches (set in build when the
	// columnar plane is on; see chainAcceptsColumns). colSrc: this
	// source instance produces them — true only when at least one route
	// accepts columns, so a plan of row-only consumers never pays the
	// fill-then-materialize round trip.
	// colJoin: this instance is a tail join emitting its matches as
	// column batches (set in build when the columnar plane is on and a
	// route can consume them; see appendJoinPair).
	colOK   bool
	colSrc  bool
	colJoin bool

	// Sink instances batch their metric updates: deliveries stamp one
	// wall-clock read per input batch (nowUnix) and accumulate counts
	// and latencies locally, taking the report mutex once per ~1k
	// deliveries instead of once per tuple.
	hasSink  bool
	nowUnix  int64
	sinkOut  uint64
	sinkLats []float64
}

// head is the chain's first operator — the one whose partition strategy
// and parallelism govern the instance.
func (oi *opInstance) head() *core.Operator { return oi.chain[0].op }

func newOpInstance(r *Runtime, ops []*core.Operator, idx int) *opInstance {
	oi := &opInstance{
		rt:    r,
		idx:   idx,
		in:    make(chan message, r.opts.ChannelCapacity),
		curWM: tuple.NoEventTime,
	}
	for _, op := range ops {
		oi.chain = append(oi.chain, &chainedOp{op: op})
		if op.Kind == core.OpSink {
			oi.hasSink = true
		}
	}
	return oi
}

// deliver records one sink delivery against the instance-local batch of
// metrics and hands the tuple to the tap (or back to the pool).
func (oi *opInstance) deliver(op string, t *tuple.Tuple) {
	oi.sinkOut++
	if t.Ingest > 0 {
		oi.sinkLats = append(oi.sinkLats, float64(oi.nowUnix-t.Ingest)/1e9)
	}
	if tap := oi.rt.opts.SinkTap; tap != nil {
		tap(op, t)
	} else {
		t.Release()
	}
	if oi.sinkOut >= 1024 {
		oi.flushSinkStats()
	}
}

// flushSinkStats merges the local delivery batch into the shared report.
func (oi *opInstance) flushSinkStats() {
	if oi.sinkOut == 0 {
		return
	}
	rs := &oi.rt.report
	rs.mu.Lock()
	rs.tuplesOut += oi.sinkOut
	rs.latencies.AddAll(oi.sinkLats...)
	rs.mu.Unlock()
	oi.sinkOut = 0
	oi.sinkLats = oi.sinkLats[:0]
}

// emit forwards a chain-tail output along all outgoing routes. Fan-out
// clones from the second route on so routes never share mutable tuples;
// clones are pooled so they recycle like source tuples. A tail with no
// routes (a plan that dead-ends off a non-sink) drops and releases.
func (oi *opInstance) emit(t *tuple.Tuple) {
	if len(oi.routes) == 0 {
		t.Release()
		return
	}
	for i, rt := range oi.routes {
		out := t
		if i > 0 {
			out = t.ClonePooled()
		}
		if !rt.send(oi.ctx, oi.idx, out) {
			return
		}
	}
}

// pendingOut reports how many output tuples wait in partial batches,
// a columnar join's out-batch included.
func (oi *opInstance) pendingOut() int {
	n := 0
	for _, rt := range oi.routes {
		n += rt.pending + rt.colPending
	}
	if oi.colJoin {
		if out := oi.chain[0].join.out; out != nil {
			n += out.Len()
		}
	}
	return n
}

// flushRoutes ships every partial output batch downstream.
func (oi *opInstance) flushRoutes(ctx context.Context) bool {
	if oi.colJoin {
		oi.chain[0].join.flushColumns()
	}
	for _, rt := range oi.routes {
		if !rt.flushAll(ctx) {
			return false
		}
	}
	return true
}

// run is the instance goroutine body. Partial output batches are flushed
// whenever the input runs momentarily dry (so idle pipelines drain with
// no added latency) and, during busy stretches, at the BatchLinger
// boundary so a slow-filling batch cannot hold tuples back indefinitely.
func (oi *opInstance) run(ctx context.Context) {
	oi.ctx = ctx
	if oi.head().Kind == core.OpSource {
		if oi.colSrc {
			oi.runSourceColumnar(ctx)
			return
		}
		oi.runSource(ctx)
		return
	}
	for i, c := range oi.chain {
		c.initState(oi)
		c.bindEmit(oi, i)
	}
	oi.initWatermarks()
	defer oi.flushSinkStats()
	lingerDur := oi.rt.opts.BatchLinger
	killC := oi.killChan()
	var linger *time.Timer
	var lingerC <-chan time.Time
	for {
		if oi.flt != nil && oi.flt.killed.Load() {
			panic(errInjectedCrash)
		}
		var msg message
		select {
		case msg = <-oi.in:
		default:
			// Input momentarily idle: flush partial batches downstream
			// rather than hold them to the linger boundary.
			if !oi.flushRoutes(ctx) {
				return
			}
			lingerC = nil
			select {
			case msg = <-oi.in:
			case <-killC:
				panic(errInjectedCrash)
			case <-ctx.Done():
				return
			}
		}
		// One wall-clock read covers the whole batch's sink latencies.
		if oi.hasSink {
			oi.nowUnix = time.Now().UnixNano()
		}
		if msg.kind == msgEOS {
			// A finished producer will never send again: its channel
			// watermark is +∞, which unblocks the merged minimum for the
			// producers still running (Flink's EOS semantics).
			oi.noteWatermark(msg.side, msg.from, math.MaxInt64)
			oi.gotEOS[msg.side]++
			if oi.allEOS() {
				oi.flushChain()
				for _, rt := range oi.routes {
					rt.eos(ctx)
				}
				return
			}
			continue
		}
		if msg.kind == msgWatermark {
			oi.noteWatermark(msg.side, msg.from, msg.wm)
			continue
		}
		var n int
		if msg.cb != nil {
			n = msg.cb.Live()
			// The batch's watermark stamp rides behind its rows: read it
			// now (the batch is released during apply), note it after.
			cbWM := msg.cb.Watermark()
			if oi.colOK {
				oi.applyColumns(0, msg.cb)
			} else {
				oi.materializeColumns(msg.cb, msg.side)
			}
			if cbWM != tuple.NoEventTime {
				oi.noteWatermark(msg.side, msg.from, cbWM)
			}
		} else {
			n = len(*msg.b)
			for _, t := range *msg.b {
				oi.applyAt(0, t, msg.side)
			}
			putBatch(msg.b)
		}
		if oi.flt != nil {
			oi.maybeSlow(n)
		}
		// Busy stretch: bound how long partial output batches linger.
		if oi.pendingOut() > 0 {
			if lingerC == nil {
				if linger == nil {
					linger = time.NewTimer(lingerDur)
				} else {
					linger.Reset(lingerDur)
				}
				lingerC = linger.C
			} else {
				select {
				case <-lingerC:
					if !oi.flushRoutes(ctx) {
						return
					}
					lingerC = nil
				default:
				}
			}
		} else {
			lingerC = nil
		}
	}
}

// allEOS reports whether every expected upstream instance finished.
func (oi *opInstance) allEOS() bool {
	for side := 0; side < 2; side++ {
		if oi.gotEOS[side] < oi.expectEOS[side] {
			return false
		}
	}
	return true
}

// runSource drives the instance's generator. Sources are never fused, so
// the chain is exactly [source].
//
// Watermark emission is punctuated when the generator implements
// Watermarker (emit whenever its assertion advances — per-arrival
// granularity for in-order replay) and periodic otherwise: every
// WatermarkInterval tuples the source asserts max-event-time-seen minus
// the bounded-skew allowance from its DisorderSpec.
func (oi *opInstance) runSource(ctx context.Context) {
	src := oi.head()
	gen := oi.rt.opts.Sources[src.ID](oi.idx)
	rate := src.Source.EventRate / float64(src.Parallelism)
	killC := oi.killChan()
	punct, _ := gen.(Watermarker)
	skewNs := int64(0)
	if d := src.Source.Disorder; d != nil {
		skewNs = d.MaxSkewMs * 1e6
	}
	wmEvery := uint64(oi.rt.opts.WatermarkInterval)
	if !oi.rt.needsWM {
		// No operator in this plan fires on watermarks: suppress emission
		// entirely rather than pay a flush-and-broadcast per interval.
		punct, wmEvery = nil, 0
	}
	maxEt := tuple.NoEventTime
	// Checkpoint resume after a crash: generators are deterministic, so
	// a revived life rebuilds its generator and skips the oi.seq tuples
	// the previous lives already emitted.
	if oi.flt != nil && oi.seq > 0 {
		for skipped := uint64(0); skipped < oi.seq; skipped++ {
			t, ok := gen.Next()
			if !ok {
				break
			}
			t.Release()
		}
	}
	var emitted, unrecorded uint64
	var now int64
	var pacer *time.Timer // single reusable throttle timer
	throttleStart := time.Now()
	for {
		if oi.flt != nil {
			if oi.flt.killed.Load() {
				panic(errInjectedCrash)
			}
			oi.maybeStall(ctx, killC)
		}
		select {
		case <-ctx.Done():
			return
		default:
		}
		t, ok := gen.Next()
		if !ok {
			break
		}
		// One wall-clock read stamps 16 tuples: within a burst the spread
		// is microseconds, and throttle sleeps land on multiples of 64 so
		// the first post-sleep tuple always re-reads the clock.
		if emitted&15 == 0 {
			now = time.Now().UnixNano()
		}
		t.Ingest = now
		if t.EventTime == tuple.NoEventTime {
			t.EventTime = now
		}
		t.Seq = oi.seq
		oi.seq++
		unrecorded++
		if unrecorded >= 1024 {
			oi.rt.recordIngest(unrecorded)
			unrecorded = 0
		}
		oi.chain[0].nOut++
		// Capture the event time before emit: downstream may release the
		// tuple before the send returns on a fused route.
		et := t.EventTime
		oi.emit(t)
		emitted++
		if et > maxEt {
			maxEt = et
		}
		if punct != nil {
			if wm := punct.Watermark(); wm != tuple.NoEventTime && wm > oi.curWM {
				if !oi.emitWatermark(wm) {
					return
				}
			}
		} else if wmEvery > 0 && emitted%wmEvery == 0 && maxEt != tuple.NoEventTime {
			if wm := maxEt - skewNs; wm > oi.curWM {
				if !oi.emitWatermark(wm) {
					return
				}
			}
		}
		if oi.rt.opts.Throttle && rate > 0 && emitted%64 == 0 {
			// Pace to the configured event rate in wall-clock time.
			want := time.Duration(float64(emitted) / rate * float64(time.Second))
			if ahead := want - time.Since(throttleStart); ahead > 0 {
				// Don't hold partial batches back across the sleep.
				if !oi.flushRoutes(ctx) {
					return
				}
				if pacer == nil {
					pacer = time.NewTimer(ahead)
				} else {
					// The previous firing was always drained below, so
					// Reset is race-free under pre-1.23 timer semantics.
					pacer.Reset(ahead)
				}
				select {
				case <-pacer.C:
				case <-killC:
					panic(errInjectedCrash)
				case <-ctx.Done():
					return
				}
			}
		}
	}
	if unrecorded > 0 {
		oi.rt.recordIngest(unrecorded)
	}
	for _, rt := range oi.routes {
		rt.eos(ctx)
	}
}
