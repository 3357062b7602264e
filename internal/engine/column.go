package engine

import (
	"context"
	"time"

	"pdspbench/internal/core"
	"pdspbench/internal/tuple"
)

// The columnar data plane is the engine's default (Options.RowPlane
// opts out): sources fill struct-of-arrays batches (tuple.ColumnBatch),
// column-accepting operators run over contiguous slabs, and the row
// plane takes over automatically wherever an operator needs per-row
// semantics.
//
// An operator accepts columnar input iff it is a filter, a sink, a
// map/flatMap without a UDO (an identity pass-through), a
// UDO/map/flatMap whose registered UDO implements ColumnUDO, or a keyed
// tumbling count window: filters compile to core.Kernel selection-vector
// loops, sinks count/measure straight off the columns, ColumnUDOs append
// their output rows through a ColumnOut, and the count window folds
// straight from the key and value columns. The window's results leave
// as rows. Time and sliding windows, sessions, joins and row-only UDOs
// keep the row plane, and the ROUTER is where the fallback happens: a
// columnar batch addressed to a row-only operator is materialized row
// by row through the per-tuple send path, so routing (and therefore
// any keyed state downstream) is bit-identical to a row-plane run.
// Fallback batches are counted in Report.ColumnarFallbackBatches so
// tests and operators can see it.
//
// Between column-accepting operators no row is copied. A router that
// partitions by hash (or rebalances onto a count window) routes each
// row as the row plane would, then ships every target a view of the
// batch that selects its rows (tuple.ColumnBatch.View); the key hashes
// it routed by ride along as the batch's hash column, which the count
// window folds by.
//
// Three things force the row plane entirely: Options.RowPlane (the
// reference plane of the equivalence suites), Throttle (pacing is
// per-tuple) and Faults (the chaos machinery kills at row message
// boundaries).

// ColumnFiller is the optional generator fast path: a source generator
// that can fill a column batch directly (writing slabs instead of
// boxing tuples) implements it. Fill order must match Next() exactly —
// same randomness consumption, same event times — so a columnar run
// stays bit-identical to a row run from the same seed. NextColumns
// returns the number of rows written (0 at end of stream) and must
// leave event times in the EventCol (or tuple.NoEventTime to have the
// source stamp ingest time, as the row path does; slabs are recycled
// unzeroed, so every row must be written one way or the other).
type ColumnFiller interface {
	NextColumns(b *tuple.ColumnBatch) int
}

// ColumnUDO is the optional UDO fast path on the columnar plane: a UDO
// that can process a whole column batch and append its outputs as
// column rows implements it. The contract: ProcessColumns emits exactly
// the rows Process would emit for the selected rows of in, in the same
// order, with the same event and ingest times, and it never retains in
// (the engine releases it on return) or writes its slabs (in may be a
// view whose slabs other instances read). OutKinds names the output
// columns' kinds, fixed for the UDO's lifetime. A panic inside
// ProcessColumns counts as one UDO panic and drops the rest of the
// input batch and the output row reserved last; rows reserved before it
// go downstream. Rebalance partitioning hands a ColumnUDO's instances
// whole batches in turn, not rows in turn as on the row plane, so
// instances see different rows on the two planes: a ColumnUDO must not
// let per-instance state change what it emits.
type ColumnUDO interface {
	UDO
	OutKinds() []tuple.Type
	ProcessColumns(in *tuple.ColumnBatch, out *ColumnOut)
}

// ColumnOut is the appender a ColumnUDO writes its output rows through:
// Row hands out the next row of a pooled outgoing batch. When that
// batch is full, the next Row call ships it downstream and starts a new
// one; the engine ships the partial batch when
// ProcessColumns returns.
type ColumnOut struct {
	kinds []tuple.Type
	rows  int
	cb    *tuple.ColumnBatch
	// next ships a sealed batch downstream; nOut is the UDO's output
	// counter.
	next func(*tuple.ColumnBatch)
	nOut *uint64
}

// NewColumnOut returns an appender that hands sealed batches of up to
// rows rows of kinds to next: the host side of a ColumnUDO, for running
// one outside the engine (tests, tools). Flush ships the last, partial
// batch.
func NewColumnOut(kinds []tuple.Type, rows int, next func(*tuple.ColumnBatch)) *ColumnOut {
	return &ColumnOut{kinds: kinds, rows: rows, next: next, nOut: new(uint64)}
}

// Flush ships the pending partial batch, if any.
func (o *ColumnOut) Flush() {
	if o.cb != nil {
		o.ship(o.cb.Len())
	}
}

// Row reserves the next output row, stamped with event and ingest time,
// and returns the batch holding it and the row's index. The caller
// writes every field of that row through the batch's column slabs
// (StrCol, IntCol, FloatCol) before calling Row again.
func (o *ColumnOut) Row(event, ingest int64) (*tuple.ColumnBatch, int) {
	cb := o.cb
	if cb != nil && cb.Len() == cb.Cap() {
		o.ship(cb.Len())
		cb = nil
	}
	if cb == nil {
		cb = tuple.GetColumnBatch(o.kinds, o.rows)
		o.cb = cb
	}
	*o.nOut++
	return cb, cb.AddRow(event, ingest)
}

// ship seals the pending batch's first n rows and hands them to next;
// an empty batch goes straight back to the pool.
func (o *ColumnOut) ship(n int) {
	cb := o.cb
	if cb == nil {
		return
	}
	o.cb = nil
	if n == 0 {
		cb.Release()
		return
	}
	cb.Seal(n)
	o.next(cb)
}

// columnUDOOf reports the ColumnUDO fast path of an operator's
// registered UDO, probing the factory's instance 0 (every instance of
// an operator comes from the same factory).
func columnUDOOf(op *core.Operator, udos map[string]UDOFactory) bool {
	if op.UDO == nil {
		return false
	}
	f, ok := udos[op.UDO.Name]
	if !ok {
		return false
	}
	_, ok = f(0).(ColumnUDO)
	return ok
}

// countTumbling reports whether op is a tumbling count window, the one
// window kind that folds straight from columns.
func countTumbling(op *core.Operator) bool {
	return op.Kind == core.OpAggregate && op.Agg != nil &&
		op.Agg.Window.Policy == core.PolicyCount && op.Agg.Window.Type == core.WindowTumbling
}

// acceptsColumns reports whether an operator can execute on column
// batches.
func acceptsColumns(op *core.Operator, udos map[string]UDOFactory) bool {
	switch op.Kind {
	case core.OpFilter, core.OpSink:
		return true
	case core.OpMap, core.OpFlatMap, core.OpUDO:
		return op.UDO == nil || columnUDOOf(op, udos)
	case core.OpAggregate:
		return countTumbling(op)
	}
	return false
}

// kernelFor returns the filter's compiled kernel, compiling on first
// use once the batch reveals the column kind. The field guard mirrors
// the row path's t.Width() check (out-of-range specs fall back to field
// 0); batch width is the schema width, constant per stream.
func (oi *opInstance) kernelFor(cb *tuple.ColumnBatch) core.Kernel {
	if oi.kern == nil {
		f := oi.op.Filter.Field
		if f >= cb.Width() {
			f = 0
		}
		oi.kfield = f
		oi.kern = core.CompileFilter(oi.op.Filter, cb.Kind(f))
	}
	return oi.kern
}

// applyColumns runs the operator over one column batch. A filter
// shrinks the selection vector in place; counters advance by live-row
// counts so PerOperator stats agree with the row plane.
func (oi *opInstance) applyColumns(cb *tuple.ColumnBatch) {
	live := uint64(cb.Live())
	oi.nIn += live
	switch oi.op.Kind {
	case core.OpFilter:
		k := oi.kernelFor(cb)
		cb.SetSel(k(cb, oi.kfield, cb.Sel()))
		oi.nOut += uint64(cb.Live())
	case core.OpSink:
		oi.deliverColumns(cb)
		return
	case core.OpAggregate:
		// The count window's results go on as rows.
		oi.agg.addColumns(cb, oi.out)
		cb.Release()
		return
	default:
		if oi.cout != nil {
			oi.processColumns(cb)
			return
		}
		oi.nOut += live // spec-less map/flatMap: identity pass-through
	}
	if cb.Live() == 0 {
		cb.Release()
		return
	}
	oi.emitColumns(cb)
}

// processColumns runs a ColumnUDO over one batch and ships its partial
// output batch. Panics are isolated as safeProcess isolates them on the
// row plane.
func (oi *opInstance) processColumns(cb *tuple.ColumnBatch) {
	out := oi.cout
	defer func() {
		if r := recover(); r != nil {
			oi.rt.recordUDOPanic(&CrashError{Op: oi.op.ID, Instance: oi.idx, Cause: r})
			if out.cb != nil {
				// The row reserved last may be half written.
				*out.nOut--
				out.ship(out.cb.Len() - 1)
			}
		}
		cb.Release()
	}()
	oi.cudo.ProcessColumns(cb, out)
	out.Flush()
}

// deliverColumns records sink metrics for every selected row. Without a
// tap the rows are never boxed: counting and latency read straight off
// the ingest column. With a tap each row materializes to a pooled tuple
// the tap owns, exactly like the row plane's deliver.
func (oi *opInstance) deliverColumns(cb *tuple.ColumnBatch) {
	op := oi.op.ID
	sel := cb.Sel()
	if tap := oi.rt.opts.SinkTap; tap != nil {
		for _, i := range sel {
			//lint:ignore hotpath-alloc the tap contract hands each row to user code as a pooled tuple
			t := cb.MaterializeRow(int(i))
			oi.sinkOut++
			if t.Ingest > 0 {
				oi.sinkLats = append(oi.sinkLats, float64(oi.nowUnix-t.Ingest)/1e9)
			}
			tap(op, t)
		}
	} else {
		inge := cb.IngestCol()
		oi.sinkOut += uint64(len(sel))
		for _, i := range sel {
			if ing := inge[i]; ing > 0 {
				oi.sinkLats = append(oi.sinkLats, float64(oi.nowUnix-ing)/1e9)
			}
		}
	}
	cb.Release()
	if oi.sinkOut >= 1024 {
		oi.flushSinkStats()
	}
}

// emitColumns forwards an output batch along all outgoing routes.
// Fan-out clones BEFORE the original ships (the original may be
// processed — and released — by the first consumer while later routes
// are still being served), so clones go out first and the original
// last. Every outgoing batch is stamped with the emitting instance's
// own merged watermark: a forwarded batch must not carry its upstream
// producer's (possibly further-advanced) assertion, because this
// instance merges several producers and only the minimum is a valid
// statement about its output channel.
func (oi *opInstance) emitColumns(cb *tuple.ColumnBatch) {
	if len(oi.routes) == 0 {
		cb.Release()
		return
	}
	cb.SetWatermark(oi.curWM)
	for i := len(oi.routes) - 1; i >= 1; i-- {
		if !oi.routes[i].sendColumns(oi.ctx, oi.idx, cb.CloneColumns()) {
			cb.Release()
			return
		}
	}
	oi.routes[0].sendColumns(oi.ctx, oi.idx, cb)
}

// sendColumns routes one column batch downstream. Row-only targets get
// the automatic fallback: every selected row is materialized and routed
// through the per-tuple send path, which keeps partitioning decisions
// (hash, rebalance order) bit-identical to a row-plane run. Columnar
// targets receive whole batches for forward partitioning and for
// rebalancing onto stateless operators; hash partitioning, and
// rebalancing onto an operator that keeps window state, split the batch
// into one view per target (see scatterColumns).
func (rt *router) sendColumns(ctx context.Context, fromIdx int, cb *tuple.ColumnBatch) bool {
	rt.colBatches++
	if !rt.colOK {
		rt.colFallback++
		for _, i := range cb.Sel() {
			//lint:ignore hotpath-alloc the row-plane fallback: row-only targets need per-tuple routing
			if !rt.send(ctx, fromIdx, cb.MaterializeRow(int(i))) {
				cb.Release()
				return false
			}
		}
		cb.Release()
		return true
	}
	n := len(rt.targets)
	switch {
	case rt.strategy == core.PartitionForward:
		return rt.shipColumns(ctx, fromIdx%n, cb)
	case rt.strategy == core.PartitionHash || rt.stateful:
		return rt.scatterColumns(ctx, cb)
	default: // rebalance onto stateless targets: whole batches round-robin
		di := rt.rr % n
		rt.rr++
		return rt.shipColumns(ctx, di, cb)
	}
}

// scatterColumns routes each selected row as the row plane would —
// HashAt matches Value.Hash bit for bit, and the round-robin cursor is
// the row plane's — but copies no row: each target that gets rows gets
// a view of cb selecting them, and a single target gets cb itself. A
// hash route's key hashes stay on cb as its hash column, which the
// views share, so the keyed window behind them hashes no key again.
// A target that gets no row still gets cb's watermark when it advanced.
func (rt *router) scatterColumns(ctx context.Context, cb *tuple.ColumnBatch) bool {
	n := len(rt.targets)
	if n == 1 {
		return rt.shipColumns(ctx, 0, cb)
	}
	hash := rt.strategy == core.PartitionHash
	var hs []uint64
	if hash {
		f := rt.keyField
		if f >= cb.Width() {
			f = 0
		}
		hs = cb.HashKeys(f)
	}
	views := rt.views
	made, last := 0, 0
	for _, i := range cb.Sel() {
		var di int
		if hash {
			di = int(hs[i] % uint64(n))
		} else {
			di = rt.rr % n
			rt.rr++
		}
		v := views[di]
		if v == nil {
			v = cb.View()
			views[di] = v
			made, last = made+1, di
		}
		v.SetSel(append(v.Sel(), i))
	}
	wm := cb.Watermark()
	if made == 1 {
		// Every row goes to one target: it takes the batch itself.
		views[last].Release()
		views[last] = cb
	} else {
		cb.Release()
	}
	ok := true
	for di, v := range views {
		views[di] = nil
		switch {
		case !ok:
			if v != nil {
				v.Release()
			}
		case v != nil:
			if wm > rt.sentWM[di] {
				rt.sentWM[di] = wm
			}
			ok = rt.shipColumns(ctx, di, v)
		case wm > rt.sentWM[di]:
			rt.sentWM[di] = wm
			ok = rt.sendWatermark(ctx, di, wm)
		}
	}
	return ok
}

// shipColumns seals nothing — the batch's selection already names its
// live rows — and sends it to target di.
func (rt *router) shipColumns(ctx context.Context, di int, cb *tuple.ColumnBatch) bool {
	select {
	case rt.targets[di].in <- message{kind: msgData, cb: cb, side: rt.side, from: rt.wmID}:
		return true
	case <-ctx.Done():
		cb.Release()
		return false
	}
}

// materializeColumns is the receiver-side fallback: a row-only operator
// handed a column batch (defensive — routers materialize before
// sending to row-only targets, so this path is normally dead) unboxes
// and replays it through the row plane.
func (oi *opInstance) materializeColumns(cb *tuple.ColumnBatch, side int) {
	for _, i := range cb.Sel() {
		//lint:ignore hotpath-alloc defensive receiver-side fallback replays rows through the row plane
		oi.apply(cb.MaterializeRow(int(i)), side)
	}
	cb.Release()
}

// runSourceColumnar is the source loop of the columnar plane: fill a
// pooled batch (via the generator's ColumnFiller fast path when it has
// one, else row by row), stamp it as the row source stamps tuples, and
// emit it whole. Only used when at least one route accepts columns;
// the columnar plane is already off under Throttle/Faults, so no pacing
// or chaos checks appear here.
func (oi *opInstance) runSourceColumnar(ctx context.Context) {
	src := oi.op
	gen := oi.rt.opts.Sources[src.ID](oi.idx)
	kinds := tuple.KindsOf(src.Source.Schema)
	rows := oi.rt.opts.ColumnarBatch
	filler, fast := gen.(ColumnFiller)
	skewNs := int64(0)
	if d := src.Source.Disorder; d != nil {
		skewNs = d.MaxSkewMs * 1e6
	}
	maxEt := tuple.NoEventTime
	var unrecorded uint64
	pace := &fillPace{lingerNs: oi.rt.opts.BatchLinger.Nanoseconds()}
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		cb := tuple.GetColumnBatch(kinds, rows)
		var n int
		done := false
		if fast {
			// A filler writes the whole batch in one call: one clock
			// read after it stamps every row.
			n = filler.NextColumns(cb)
			done = n < rows
			cb.SealSource(n, time.Now().UnixNano(), oi.seq)
		} else {
			n, done = oi.fillColumns(gen, cb, pace, pace.target(rows, oi.rt.opts.BatchSize))
		}
		if n == 0 {
			cb.Release()
			break
		}
		oi.seq += uint64(n)
		oi.nOut += uint64(n)
		unrecorded += uint64(n)
		if unrecorded >= 1024 {
			oi.rt.recordIngest(unrecorded)
			unrecorded = 0
		}
		// Per-batch watermark: max event time seen minus the bounded-skew
		// allowance. Stamping every batch is this plane's periodic
		// cadence. The clock advances
		// before emit so emitColumns stamps the fresh assertion onto the
		// batch. Column-accepting routes read that stamp in-band and need
		// no marker; an explicit msgWatermark goes only to row-only routes,
		// whose materialized rows never carry one. Broadcasting to every
		// target per batch would synchronize the source with all consumers
		// on each batch and serialize the pipeline (measured ~40% off the
		// columnar filter benchmark). Skipped wholesale when no operator
		// consumes watermarks — arrival-driven plans never read the stamp.
		wm := tuple.NoEventTime
		if oi.rt.needsWM {
			ev := cb.EventCol()
			for i := 0; i < n; i++ {
				if ev[i] > maxEt {
					maxEt = ev[i]
				}
			}
			if maxEt != tuple.NoEventTime && maxEt-skewNs > oi.curWM {
				wm = maxEt - skewNs
				oi.curWM = wm
			}
		}
		oi.emitColumns(cb)
		if wm != tuple.NoEventTime {
			for _, rt := range oi.routes {
				if rt.colOK {
					continue
				}
				if !rt.watermark(oi.ctx, wm) {
					return
				}
			}
		}
		if done {
			break
		}
	}
	if unrecorded > 0 {
		oi.rt.recordIngest(unrecorded)
	}
	for _, rt := range oi.routes {
		rt.eos(ctx)
	}
}

// fillPace measures a row-by-row generator's own rate — rows over the
// time spent reading them, emit and backpressure excluded — and picks
// the source's batch size from it. A generator that cannot fill a whole
// column batch within BatchLinger ships batches of BatchSize rows, as
// the row plane does: such generators block inside Next (a paced
// replay sleeps between bursts), and rows read before a block would
// otherwise wait out the block in their batch. The first window runs
// at BatchSize.
type fillPace struct {
	lingerNs  int64
	rows, ns  int64
	fullBatch bool
}

// target is the row count the next batch fills to.
func (p *fillPace) target(capacity, batchSize int) int {
	if p.fullBatch || batchSize >= capacity {
		return capacity
	}
	return batchSize
}

// observe adds one batch's rows and reading time; once a window of at
// least BatchLinger is measured, it decides the batch size.
func (p *fillPace) observe(rows int, ns int64, capacity int) {
	p.rows += int64(rows)
	p.ns += ns
	if p.ns >= p.lingerNs {
		p.fullBatch = p.rows*p.lingerNs >= int64(capacity)*p.ns
		p.rows, p.ns = 0, 0
	}
}

// fillColumns reads up to want rows from a generator into cb. It stops
// early when the generator ends (done) or once BatchLinger has passed
// since the batch's first row, so a slow source ships partial batches
// instead of holding rows back. Rows are stamped as they are read, with
// one clock read per 16 rows as runSource stamps tuples, so sink
// latency counts the time a row waits in its batch.
func (oi *opInstance) fillColumns(gen SourceGenerator, cb *tuple.ColumnBatch, pace *fillPace, want int) (n int, done bool) {
	ev, inge, seq := cb.EventCol(), cb.IngestCol(), cb.SeqCol()
	var now, first int64
	for n < want {
		t, ok := gen.Next()
		if !ok {
			done = true
			break
		}
		lingered := false
		if n&15 == 0 {
			now = time.Now().UnixNano()
			if n == 0 {
				first = now
			}
			lingered = now-first >= pace.lingerNs
		}
		cb.AppendRow(t)
		t.Release()
		if ev[n] == tuple.NoEventTime {
			ev[n] = now
		}
		inge[n] = now
		seq[n] = oi.seq + uint64(n)
		n++
		if lingered {
			break
		}
	}
	cb.Seal(n)
	if n > 0 {
		pace.observe(n, time.Now().UnixNano()-first, cb.Cap())
	}
	return n, done
}
