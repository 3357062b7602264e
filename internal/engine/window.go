package engine

import (
	"math"
	"sort"

	"pdspbench/internal/core"
	"pdspbench/internal/tuple"
)

// aggState incrementally folds one group's values.
type aggState struct {
	key       tuple.Value
	keyed     bool
	count     int64
	sum       float64
	min, max  float64
	maxEvent  int64
	maxIngest int64
}

func newAggState(key tuple.Value, keyed bool) *aggState {
	return &aggState{key: key, keyed: keyed, min: math.Inf(1), max: math.Inf(-1)}
}

// fold adds one value with its row's event and ingest times — the one
// fold both planes call.
func (a *aggState) fold(v float64, event, ingest int64) {
	a.count++
	a.sum += v
	if v < a.min {
		a.min = v
	}
	if v > a.max {
		a.max = v
	}
	if event > a.maxEvent {
		a.maxEvent = event
	}
	if ingest > a.maxIngest {
		a.maxIngest = ingest
	}
}

// merge folds another state's accumulators into a — session-window
// coalescing, where two activity spans of one key turn out to be one.
// Every accumulator the engine keeps (count, sum, min, max, timestamp
// maxima) is mergeable, which is what makes gap-merging cheap.
func (a *aggState) merge(o *aggState) {
	a.count += o.count
	a.sum += o.sum
	if o.min < a.min {
		a.min = o.min
	}
	if o.max > a.max {
		a.max = o.max
	}
	if o.maxEvent > a.maxEvent {
		a.maxEvent = o.maxEvent
	}
	if o.maxIngest > a.maxIngest {
		a.maxIngest = o.maxIngest
	}
}

// value evaluates the aggregate function over the folded state.
func (a *aggState) value(fn core.AggFn) float64 {
	switch fn {
	case core.AggMin:
		return a.min
	case core.AggMax:
		return a.max
	case core.AggSum:
		return a.sum
	case core.AggCount:
		return float64(a.count)
	default: // avg and mean
		if a.count == 0 {
			return 0
		}
		return a.sum / float64(a.count)
	}
}

// result materializes the output tuple: (key, value) for keyed windows,
// (value) for global ones. Results come from the tuple pool so they
// recycle at downstream drop points.
func (a *aggState) result(fn core.AggFn) *tuple.Tuple {
	v := tuple.Double(a.value(fn))
	width := 1
	if a.keyed {
		width = 2
	}
	t := tuple.Get(width)
	t.EventTime, t.Ingest = a.maxEvent, a.maxIngest
	if a.keyed {
		t.Values[0], t.Values[1] = a.key, v
	} else {
		t.Values[0] = v
	}
	return t
}

// Keyed window state is split into 2^windowShardBits hash shards
// selected by the low bits of the FNV-1a key hash — the same hash the
// router partitions on. Each shard is a small single-writer map (the
// instance goroutine is the only writer): lookups touch a fraction of
// the key space per probe, and emission stays deterministic because
// every emit path gathers hashes across shards and sorts them globally,
// exactly the order the unsharded maps produced.
const (
	windowShardBits = 3
	windowShards    = 1 << windowShardBits
	windowShardMask = windowShards - 1
)

// pane is one time-policy window instance; keys shards are allocated
// lazily so sparse panes don't pay for empty maps.
type pane struct {
	start  int64
	keys   [windowShards]map[uint64]*aggState
	global *aggState
}

func (p *pane) keyState(h uint64, key tuple.Value) *aggState {
	m := p.keys[h&windowShardMask]
	if m == nil {
		m = make(map[uint64]*aggState)
		p.keys[h&windowShardMask] = m
	}
	st, ok := m[h]
	if !ok {
		st = newAggState(key, true)
		m[h] = st
	}
	return st
}

// aggregator implements windowed aggregation for one operator instance:
// event-time tumbling/sliding panes and gap-merged sessions under the
// time policy, per-key tumbling counters and sliding rings under the
// count policy.
//
// Time-policy state is watermark-driven: arrivals only fold into panes
// (or sessions); firing and eviction happen exclusively in advance(),
// when the instance's merged watermark moves. Count-policy windows are
// arrival-driven by definition (their trigger is a tuple count, not a
// clock) and ignore watermarks.
type aggregator struct {
	spec *core.AggregateSpec

	// Time policy. watermark is the last advance() clock (NoEventTime
	// before the first); latenessNs delays firing so out-of-order
	// arrivals within the allowance still fold in.
	panes          map[int64]*pane
	watermark      int64
	lenNs, slideNs int64
	latenessNs     int64

	// Session windows (session.go): per-key gap-merged activity spans.
	hasSession bool
	gapNs      int64
	sessKeys   [windowShards]map[uint64][]*session
	sessGlobal []*session

	// Count policy (sharded like pane keys).
	counters [windowShards]map[uint64]*aggState // tumbling: accumulate then reset
	rings    [windowShards]map[uint64]*ring     // sliding: last N values
	hasCount bool
	slideTup int
}

// ring buffers the most recent window of values for sliding count
// windows, which must re-aggregate over retained values. since counts
// arrivals per slide inline (formerly a separate map lookup per tuple).
type ring struct {
	key     tuple.Value
	keyed   bool
	vals    []float64
	events  []int64
	ingests []int64
	cap     int
	since   int
}

func (r *ring) push(v float64, t *tuple.Tuple) {
	r.vals = append(r.vals, v)
	r.events = append(r.events, t.EventTime)
	r.ingests = append(r.ingests, t.Ingest)
	if len(r.vals) > r.cap {
		r.vals = r.vals[1:]
		r.events = r.events[1:]
		r.ingests = r.ingests[1:]
	}
}

func (r *ring) state() *aggState {
	st := newAggState(r.key, r.keyed)
	for i, v := range r.vals {
		st.fold(v, r.events[i], r.ingests[i])
	}
	return st
}

func newAggregator(spec *core.AggregateSpec, latenessNs int64) *aggregator {
	a := &aggregator{spec: spec, watermark: tuple.NoEventTime}
	if latenessNs > 0 {
		a.latenessNs = latenessNs
	}
	if spec.Window.Type == core.WindowSession {
		a.hasSession = true
		a.gapNs = spec.Window.GapMs * int64(1e6)
	} else if spec.Window.Policy == core.PolicyTime {
		a.panes = make(map[int64]*pane)
		a.lenNs = spec.Window.LengthMs * int64(1e6)
		a.slideNs = int64(spec.Window.Slide() * 1e6)
		if a.slideNs <= 0 {
			a.slideNs = a.lenNs
		}
	} else {
		for s := range a.counters {
			a.counters[s] = make(map[uint64]*aggState)
			a.rings[s] = make(map[uint64]*ring)
		}
		a.hasCount = true
		a.slideTup = int(spec.Window.Slide())
		if a.slideTup <= 0 {
			a.slideTup = spec.Window.LengthTups
		}
	}
	return a
}

// groupOf extracts the grouping key; global windows group under one key.
func (a *aggregator) groupOf(t *tuple.Tuple) (uint64, tuple.Value, bool) {
	if a.spec.KeyField >= 0 && a.spec.KeyField < t.Width() {
		k := t.At(a.spec.KeyField)
		return k.Hash(), k, true
	}
	return 0, tuple.Value{}, false
}

func (a *aggregator) fieldValue(t *tuple.Tuple) float64 {
	f := a.spec.Field
	if f < 0 || f >= t.Width() {
		f = 0
	}
	return t.At(f).AsFloat()
}

// add folds one tuple into the window state. Time-policy windows only
// accumulate here — firing happens in advance() on watermark movement;
// count-policy windows emit their completed windows inline. rt records
// late drops; it may be nil in unit tests.
func (a *aggregator) add(t *tuple.Tuple, emit func(*tuple.Tuple), rt *Runtime) {
	if a.hasSession {
		a.addSession(t, rt)
		return
	}
	if a.spec.Window.Policy == core.PolicyTime {
		a.addTime(t, rt)
		return
	}
	a.addCount(t, emit)
}

// fireHorizon is the pane-end boundary at or below which windows have
// already fired: the watermark minus the allowed lateness, or
// NoEventTime before the first watermark (nothing has fired).
func (a *aggregator) fireHorizon() int64 {
	if a.watermark == tuple.NoEventTime {
		return tuple.NoEventTime
	}
	return a.watermark - a.latenessNs
}

// advance moves the event-time clock to wm, firing every pane (or
// session) whose end plus the allowed lateness the watermark passed —
// in deterministic start order — and evicting the fired state.
func (a *aggregator) advance(wm int64, emit func(*tuple.Tuple)) {
	if wm == tuple.NoEventTime || wm <= a.watermark {
		return
	}
	a.watermark = wm
	if a.hasSession {
		a.fireSessions(a.fireHorizon(), emit)
		return
	}
	if a.panes != nil {
		a.firePanes(emit, a.fireHorizon())
	}
}

func (a *aggregator) addTime(t *tuple.Tuple, rt *Runtime) {
	et := t.EventTime
	v := a.fieldValue(t)
	h, key, keyed := a.groupOf(t)
	horizon := a.fireHorizon()
	// Assign to every pane whose [start, start+len) covers et.
	first := alignDown(et, a.slideNs)
	assigned := false
	for start := first; start > et-a.lenNs; start -= a.slideNs {
		if horizon != tuple.NoEventTime && start+a.lenNs <= horizon {
			// Pane already fired and evicted: the tuple is late beyond
			// the allowed lateness. Count the drop, never reorder.
			if rt != nil && !assigned {
				rt.recordLateDrop()
			}
			break
		}
		p, ok := a.panes[start]
		if !ok {
			p = &pane{start: start}
			a.panes[start] = p
		}
		var st *aggState
		if keyed {
			st = p.keyState(h, key)
		} else {
			if p.global == nil {
				p.global = newAggState(tuple.Value{}, false)
			}
			st = p.global
		}
		st.fold(v, t.EventTime, t.Ingest)
		assigned = true
		if start < 0 {
			break
		}
	}
}

// firePanes emits and evicts every pane that closed at or before the
// horizon, in deterministic start order.
func (a *aggregator) firePanes(emit func(*tuple.Tuple), horizon int64) {
	if horizon == tuple.NoEventTime {
		return
	}
	var due []int64
	for start := range a.panes {
		if start+a.lenNs <= horizon {
			due = append(due, start)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, start := range due {
		a.emitPane(a.panes[start], emit)
		delete(a.panes, start)
	}
}

func (a *aggregator) emitPane(p *pane, emit func(*tuple.Tuple)) {
	if p.global != nil {
		emit(p.global.result(a.spec.Fn))
		return
	}
	// Deterministic key order for reproducible outputs: gather across
	// shards and sort globally — the same hash set, and therefore the
	// same emission order, an unsharded map would produce.
	var hs []uint64
	for s := range p.keys {
		for h := range p.keys[s] {
			hs = append(hs, h)
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	for _, h := range hs {
		emit(p.keys[h&windowShardMask][h].result(a.spec.Fn))
	}
}

func (a *aggregator) addCount(t *tuple.Tuple, emit func(*tuple.Tuple)) {
	v := a.fieldValue(t)
	h, key, keyed := a.groupOf(t)
	if a.spec.Window.Type == core.WindowTumbling {
		a.tumbleCount(h, key, keyed, v, t.EventTime, t.Ingest, emit)
		return
	}
	// Sliding count window: ring of the last LengthTups values, emitting
	// every slideTup arrivals once the ring first fills.
	m := a.rings[h&windowShardMask]
	r, ok := m[h]
	if !ok {
		r = &ring{key: key, keyed: keyed, cap: a.spec.Window.LengthTups}
		m[h] = r
	}
	r.push(v, t)
	r.since++
	if len(r.vals) >= r.cap && r.since >= a.slideTup {
		emit(r.state().result(a.spec.Fn))
		r.since = 0
	}
}

// tumbleCount folds one row into group h's tumbling count window and
// emits the window once it holds LengthTups rows. key is read only
// when the row opens a new window.
func (a *aggregator) tumbleCount(h uint64, key tuple.Value, keyed bool, v float64, event, ingest int64, emit func(*tuple.Tuple)) {
	m := a.counters[h&windowShardMask]
	st, ok := m[h]
	if !ok {
		st = newAggState(key, keyed)
		m[h] = st
	}
	st.fold(v, event, ingest)
	if st.count >= int64(a.spec.Window.LengthTups) {
		emit(st.result(a.spec.Fn))
		delete(m, h)
	}
}

// addColumns folds the selected rows of a batch into a tumbling count
// window (the only window chainAcceptsColumns admits), straight from
// the key and value columns with the row plane's field rules; completed
// windows emit as rows.
func (a *aggregator) addColumns(cb *tuple.ColumnBatch, emit func(*tuple.Tuple)) {
	f := a.spec.Field
	if f < 0 || f >= cb.Width() {
		f = 0
	}
	kf := a.spec.KeyField
	keyed := kf >= 0 && kf < cb.Width()
	ev, inge := cb.EventCol(), cb.IngestCol()
	for _, r := range cb.Sel() {
		i := int(r)
		var h uint64
		var key tuple.Value
		if keyed {
			h, key = cb.HashAt(kf, i), cb.ValueAt(kf, i)
		}
		a.tumbleCount(h, key, keyed, cb.FloatAt(f, i), ev[i], inge[i], emit)
	}
}

// flush emits all retained partial windows at end-of-stream,
// unconditionally: the stream is complete, so lateness retention no
// longer applies.
func (a *aggregator) flush(emit func(*tuple.Tuple)) {
	if a.hasSession {
		a.fireSessions(math.MaxInt64, emit)
		return
	}
	if a.panes != nil {
		a.firePanes(emit, math.MaxInt64)
	}
	if !a.hasCount {
		return
	}
	// Deterministic order across shards: gather every live hash, sort
	// globally, then index back through the shard mask — identical to the
	// order the unsharded maps emitted.
	var hs []uint64
	for s := range a.counters {
		for h := range a.counters[s] {
			hs = append(hs, h)
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	for _, h := range hs {
		if st := a.counters[h&windowShardMask][h]; st.count > 0 {
			emit(st.result(a.spec.Fn))
		}
	}
	hs = hs[:0]
	for s := range a.rings {
		for h := range a.rings[s] {
			hs = append(hs, h)
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	for _, h := range hs {
		if r := a.rings[h&windowShardMask][h]; len(r.vals) > 0 && len(r.vals) < r.cap {
			// Full rings already emitted on their slide; emit only
			// never-fired partial windows.
			emit(r.state().result(a.spec.Fn))
		}
	}
}

// alignDown floors t to a multiple of step, correct for negative t too.
func alignDown(t, step int64) int64 {
	if step <= 0 {
		return t
	}
	q := t / step
	if t < 0 && t%step != 0 {
		q--
	}
	return q * step
}
