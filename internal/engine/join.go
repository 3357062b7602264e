package engine

import (
	"pdspbench/internal/core"
	"pdspbench/internal/tuple"
)

// Time-policy join state is split into 2^joinShardBits hash shards
// selected by the low bits of the FNV-1a key hash — the same hash that
// partitions tuples across instances. Each shard is a small single-writer
// region (the instance goroutine is the only writer): smaller bucket
// maps, hotter caches, and per-shard eviction queues that retire entries
// in O(1) amortized instead of sweeping every bucket. Count-policy joins
// keep one shard because the FIFO eviction order is global semantics,
// not an implementation choice.
const (
	joinShardBits = 3
	joinShards    = 1 << joinShardBits
)

// joinEntry is one buffered tuple on one side of a windowed join. The
// join key and its event time are captured at insert, so probes and
// evictions compare inline values instead of chasing the tuple pointer
// back through Values on every candidate.
type joinEntry struct {
	t   *tuple.Tuple
	key tuple.Value
	et  int64
}

// joinQueueEnt is one eviction-queue slot: enough to find the entry's
// bucket (h) and decide expiry (et) without touching the tuple.
type joinQueueEnt struct {
	t  *tuple.Tuple
	h  uint64
	et int64
}

// joinShard is one hash partition of the buffered state: per-side
// bucket maps plus per-side arrival-ordered eviction queues. qhead
// indexes the logical queue front so popping is a pointer bump, with
// periodic compaction bounding the dead prefix.
type joinShard struct {
	buf   [2]map[uint64][]joinEntry
	queue [2][]joinQueueEnt
	qhead [2]int
}

// joiner is a symmetric windowed equi-join: each arriving tuple probes
// the opposite side's buffer for key matches within the window, emits
// the concatenated results immediately, then joins the buffer of its own
// side. Time-policy windows bound matches by event-time distance;
// count-policy windows bound each side's buffer to the window length in
// tuples (the streaming interpretation of a count window join).
type joiner struct {
	spec   *core.JoinSpec
	shards []joinShard
	mask   uint64
	lenNs  int64
	cap    int
	// wm is the instance's merged watermark, moved only by advance():
	// time-policy eviction and late-arrival drops key off it, so buffer
	// retirement follows event-time completeness instead of arrival
	// order. latenessNs extends retention (and the drop boundary) by the
	// allowed lateness; rt counts the drops (nil in unit tests).
	wm         int64
	latenessNs int64
	rt         *Runtime

	// Exactly one emission sink is bound per run (bindEmit). The row
	// plane sets emitPair, which materializes each match as a pooled
	// joined tuple. The columnar plane (the default, with a
	// batch-capable route) sets columnar/outCap/emitOut/nOut instead:
	// matches append straight into out — no per-match tuple, no closure
	// hops — and full batches ship via emitOut.
	emitPair func(arrived, buffered *tuple.Tuple, side int)
	columnar bool
	outCap   int
	out      *tuple.ColumnBatch
	emitOut  func(*tuple.ColumnBatch)
	nOut     *uint64
}

func newJoiner(spec *core.JoinSpec, latenessNs int64) *joiner {
	j := &joiner{spec: spec, wm: tuple.NoEventTime}
	if latenessNs > 0 {
		j.latenessNs = latenessNs
	}
	n := 1
	if spec.Window.Policy == core.PolicyTime {
		j.lenNs = spec.Window.LengthMs * int64(1e6)
		n = joinShards
	} else {
		j.cap = spec.Window.LengthTups
	}
	j.mask = uint64(n - 1)
	j.shards = make([]joinShard, n)
	for s := range j.shards {
		j.shards[s].buf[0] = make(map[uint64][]joinEntry)
		j.shards[s].buf[1] = make(map[uint64][]joinEntry)
	}
	return j
}

// keyOf extracts the join key of a tuple arriving on the given side.
func (j *joiner) keyOf(t *tuple.Tuple, side int) tuple.Value {
	f := j.spec.LeftField
	if side == 1 {
		f = j.spec.RightField
	}
	if f < 0 || f >= t.Width() {
		f = 0
	}
	return t.At(f)
}

// add processes one arrival: probe, emit matches through the bound
// sink, insert, evict. Time-policy arrivals older than the watermark
// minus the allowed lateness can no longer match anything the buffers
// are required to retain — they are dropped and counted, never
// silently reordered.
func (j *joiner) add(t *tuple.Tuple, side int) {
	if side != 0 {
		side = 1
	}
	if j.cap == 0 && j.wm != tuple.NoEventTime &&
		t.EventTime != tuple.NoEventTime && t.EventTime < j.wm-j.latenessNs {
		if j.rt != nil {
			j.rt.recordLateDrop()
		}
		t.Release()
		return
	}
	key := j.keyOf(t, side)
	h := key.Hash()
	sh := &j.shards[h&j.mask]
	other := 1 - side
	// Probe the opposite buffer; keys and event times are inline in the
	// entries, so only actual matches dereference a buffered tuple.
	if bucket := sh.buf[other][h]; len(bucket) > 0 {
		j.probe(bucket, t, key, side)
	}
	// Insert into this side's buffer and eviction queue.
	sh.buf[side][h] = append(sh.buf[side][h], joinEntry{t: t, key: key, et: t.EventTime})
	sh.queue[side] = append(sh.queue[side], joinQueueEnt{t: t, h: h, et: t.EventTime})
	if j.cap > 0 {
		j.evictCount(sh, side)
	} else {
		// Lazy per-shard expiry at the watermark-derived horizon: pop the
		// arrival-ordered queue while its head can no longer match any
		// future in-time arrival. Out-of-order event times can leave an
		// expired entry behind a fresher head briefly, which is safe —
		// the probe re-checks the time bound — and each entry is still
		// retired exactly once, so the cost is O(1) amortized per add
		// instead of a periodic sweep over every bucket.
		horizon := j.evictHorizon()
		j.evictTime(sh, side, horizon)
		j.evictTime(sh, other, horizon)
	}
}

// evictHorizon is the event time below which a buffered entry can no
// longer match any arrival the watermark still admits: watermark minus
// window length minus allowed lateness.
func (j *joiner) evictHorizon() int64 {
	if j.wm == tuple.NoEventTime {
		return tuple.NoEventTime
	}
	return j.wm - j.lenNs - j.latenessNs
}

// advance moves the joiner's event-time clock to wm and retires every
// buffered entry outside the new retention horizon, on both sides of
// every shard. Count-policy joins are arrival-bounded and unaffected.
func (j *joiner) advance(wm int64) {
	if j.cap > 0 || wm == tuple.NoEventTime {
		return
	}
	if j.wm != tuple.NoEventTime && wm <= j.wm {
		return
	}
	j.wm = wm
	horizon := j.evictHorizon()
	for s := range j.shards {
		sh := &j.shards[s]
		j.evictTime(sh, 0, horizon)
		j.evictTime(sh, 1, horizon)
	}
}

// probe scans one bucket for matches with the arriving tuple. The
// columnar branch appends each match's concatenated row directly into
// the out-batch — the left/right ordering branch is hoisted out of the
// loop (side is fixed per arrival) and the only per-match calls are
// Equal and AppendJoined.
func (j *joiner) probe(bucket []joinEntry, t *tuple.Tuple, key tuple.Value, side int) {
	if !j.columnar {
		for i := range bucket {
			e := &bucket[i]
			if !e.key.Equal(key) {
				continue
			}
			if j.lenNs > 0 {
				d := t.EventTime - e.et
				if d < 0 {
					d = -d
				}
				if d > j.lenNs {
					continue
				}
			}
			j.emitPair(t, e.t, side)
		}
		return
	}
	matches := uint64(0)
	for i := range bucket {
		e := &bucket[i]
		if !e.key.Equal(key) {
			continue
		}
		if j.lenNs > 0 {
			d := t.EventTime - e.et
			if d < 0 {
				d = -d
			}
			if d > j.lenNs {
				continue
			}
		}
		matches++
		l, r := t, e.t
		if side == 1 {
			l, r = e.t, t
		}
		out := j.out
		if out == nil {
			out = j.newOut(l, r)
		}
		if out.AppendJoined(l, r) >= out.Cap() {
			j.flushColumns()
		}
	}
	*j.nOut += matches
}

// newOut allocates the columnar out-batch, deriving its column kinds
// from the first match's pair; the stream's schema is stable, so every
// later match agrees.
func (j *joiner) newOut(l, r *tuple.Tuple) *tuple.ColumnBatch {
	kinds := make([]tuple.Type, 0, l.Width()+r.Width())
	for _, v := range l.Values {
		kinds = append(kinds, v.Kind)
	}
	for _, v := range r.Values {
		kinds = append(kinds, v.Kind)
	}
	j.out = tuple.GetColumnBatch(kinds, j.outCap)
	return j.out
}

// flushColumns seals and ships the pending out-batch (batch-full or
// end-of-stream); a no-op on the row plane, where out is never set.
func (j *joiner) flushColumns() {
	cb := j.out
	if cb == nil {
		return
	}
	j.out = nil
	cb.Seal(cb.Len())
	j.emitOut(cb)
}

// joined concatenates values left-then-right regardless of arrival side.
// Outputs come from the tuple pool so downstream drop points recycle
// them like source tuples.
func (j *joiner) joined(arrived, buffered *tuple.Tuple, arrivedSide int) *tuple.Tuple {
	l, r := arrived, buffered
	if arrivedSide == 1 {
		l, r = buffered, arrived
	}
	out := tuple.Get(l.Width() + r.Width())
	copy(out.Values, l.Values)
	copy(out.Values[l.Width():], r.Values)
	out.EventTime = maxI64(l.EventTime, r.EventTime)
	out.Ingest = maxI64(l.Ingest, r.Ingest)
	return out
}

// evictTime retires expired entries from the front of one side's
// arrival-ordered queue. The joiner owns buffered tuples, so evicted
// ones go back to the pool.
func (j *joiner) evictTime(sh *joinShard, side int, horizon int64) {
	q := sh.queue[side]
	head := sh.qhead[side]
	for head < len(q) && q[head].et < horizon {
		j.dropEntry(sh, side, q[head])
		q[head] = joinQueueEnt{}
		head++
	}
	sh.qhead[side] = head
	sh.compact(side)
}

// evictCount bounds one side's buffer to the count window length.
func (j *joiner) evictCount(sh *joinShard, side int) {
	q := sh.queue[side]
	for len(q)-sh.qhead[side] > j.cap {
		j.dropEntry(sh, side, q[sh.qhead[side]])
		q[sh.qhead[side]] = joinQueueEnt{}
		sh.qhead[side]++
	}
	sh.compact(side)
}

// compact reclaims the popped queue prefix once it dominates the slice,
// keeping the amortized pop cost O(1) while bounding memory.
func (sh *joinShard) compact(side int) {
	head := sh.qhead[side]
	q := sh.queue[side]
	switch {
	case head == len(q) && head > 0:
		sh.queue[side] = q[:0]
		sh.qhead[side] = 0
	case head > 256 && head*2 > len(q):
		n := copy(q, q[head:])
		sh.queue[side] = q[:n]
		sh.qhead[side] = 0
	}
}

// dropEntry removes one queued entry from its bucket (by tuple
// identity, preserving bucket order) and releases the tuple.
func (j *joiner) dropEntry(sh *joinShard, side int, qe joinQueueEnt) {
	entries := sh.buf[side][qe.h]
	for i := range entries {
		if entries[i].t == qe.t {
			sh.buf[side][qe.h] = append(entries[:i], entries[i+1:]...)
			break
		}
	}
	if len(sh.buf[side][qe.h]) == 0 {
		delete(sh.buf[side], qe.h)
	}
	qe.t.Release()
}

// buffered counts the entries retained on one side across all shards
// (test introspection; the hot path never needs a global count).
func (j *joiner) buffered(side int) int {
	total := 0
	for s := range j.shards {
		for _, entries := range j.shards[s].buf[side] {
			total += len(entries)
		}
	}
	return total
}

// release returns every still-buffered tuple to the pool at
// end-of-stream (windowed joins emit eagerly, so nothing fires here).
func (j *joiner) release() {
	for s := range j.shards {
		sh := &j.shards[s]
		for side := 0; side < 2; side++ {
			for _, entries := range sh.buf[side] {
				for _, e := range entries {
					e.t.Release()
				}
			}
			sh.buf[side] = nil
			sh.queue[side] = nil
			sh.qhead[side] = 0
		}
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
