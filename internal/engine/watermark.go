package engine

import (
	"context"
	"math"

	"pdspbench/internal/tuple"
)

// The event-time plane. Sources assert watermarks — "no further tuple
// with EventTime ≤ wm on this channel" — either punctuated (the
// generator implements Watermarker and the source emits whenever the
// assertion advances) or periodically (every Options.WatermarkInterval
// tuples, max event time seen minus the bounded-skew allowance of the
// source's DisorderSpec). Every non-source instance keeps the latest
// watermark per upstream producer and per input side; its own clock is
// the minimum across all of them, so a watermark never overtakes data
// still in flight from a slower producer. When the merged minimum
// advances, the instance (1) advances its operator's window and join
// state — firing panes and evicting buffers in event-time order — and
// then (2) forwards the new watermark on every outgoing route, data
// first.
//
// End-of-stream is the final watermark: a producer's EOS marker sets
// its channel watermark to +∞, which releases the merged minimum for
// the producers still running.

// Watermarker is the punctuated-watermark interface a SourceGenerator
// may implement: after each Next, Watermark returns the generator's
// completeness assertion (NoEventTime when it has none yet). Replay
// generators (stream.FromTuples) implement it so deterministic fixtures
// see the watermark advance on every in-order arrival.
type Watermarker interface {
	Watermark() int64
}

// initWatermarks sizes the per-producer watermark slots once the
// instance's expectEOS counts are final (run start; revived lives
// rebuild the slots alongside the rest of their state).
func (oi *opInstance) initWatermarks() {
	for side := 0; side < 2; side++ {
		oi.wmIn[side] = make([]int64, oi.expectEOS[side])
		for i := range oi.wmIn[side] {
			oi.wmIn[side][i] = tuple.NoEventTime
		}
	}
}

// noteWatermark records one producer's assertion and, if the minimum
// across every producer on every populated side advanced, moves the
// instance clock: window/join state fires and evicts, then the new
// watermark is forwarded downstream. Per-slot max-merge makes delivery
// idempotent and tolerant of the redundant stamp channel (column
// batches carry their producer's watermark too).
func (oi *opInstance) noteWatermark(side int, from int32, wm int64) {
	if side != 0 {
		side = 1
	}
	slots := oi.wmIn[side]
	if from < 0 || int(from) >= len(slots) {
		return
	}
	if wm > slots[from] {
		slots[from] = wm
	}
	min := int64(math.MaxInt64)
	for s := 0; s < 2; s++ {
		for _, w := range oi.wmIn[s] {
			if w < min {
				min = w
			}
		}
	}
	if min == math.MaxInt64 || min == tuple.NoEventTime || min <= oi.curWM {
		return
	}
	oi.curWM = min
	oi.advance(min)
	oi.broadcastWatermark(min)
}

// advance moves the operator's event-time state to wm: windows fire
// their panes and joins evict their buffers.
func (oi *opInstance) advance(wm int64) {
	switch {
	case oi.agg != nil:
		oi.agg.advance(wm, oi.out)
	case oi.join != nil:
		oi.join.advance(wm)
	}
}

// emitWatermark is the source-side advance: raise the instance clock
// and broadcast. Returns false when the run's context ended.
func (oi *opInstance) emitWatermark(wm int64) bool {
	if wm <= oi.curWM {
		return true
	}
	oi.curWM = wm
	return oi.broadcastWatermark(wm)
}

// broadcastWatermark forwards wm on every route. A columnar join ships
// its partial out-batch and each route flushes its pending batches
// first, so a watermark never overtakes the data it covers; the send
// path makes watermarks monotone per channel because callers only
// broadcast on a strict advance of curWM.
func (oi *opInstance) broadcastWatermark(wm int64) bool {
	if oi.colJoin {
		oi.join.flushColumns()
	}
	for _, rt := range oi.routes {
		if !rt.watermark(oi.ctx, wm) {
			return false
		}
	}
	return true
}

// watermark flushes the route's pending data and delivers the marker to
// every still-listening target.
func (rt *router) watermark(ctx context.Context, wm int64) bool {
	if !rt.flushAll(ctx) {
		return false
	}
	for di := range rt.targets {
		if rt.sentEOS[di] {
			continue
		}
		if wm > rt.sentWM[di] {
			rt.sentWM[di] = wm
		}
		if !rt.sendWatermark(ctx, di, wm) {
			return false
		}
	}
	return true
}

// sendWatermark delivers the marker to target di.
func (rt *router) sendWatermark(ctx context.Context, di int, wm int64) bool {
	select {
	case rt.targets[di].in <- message{kind: msgWatermark, side: rt.side, from: rt.wmID, wm: wm}:
		return true
	case <-ctx.Done():
		return false
	}
}
