package engine

import (
	"sort"

	"pdspbench/internal/tuple"
)

// Session windows (core.WindowSession): per-key activity spans that
// extend while consecutive events fall within the gap of each other and
// fire once the watermark passes the last event plus the gap (plus the
// allowed lateness). Sessions are event-time only — the gap is a
// statement about event time — so the state is watermark-driven like
// panes: arrivals merge, advance() fires.
//
// Per key the open sessions are kept as a start-ordered slice of
// disjoint spans. An arrival's candidate span [et, et+gap) coalesces
// every open session it overlaps or touches (at most a contiguous run
// in start order, so the slice stays sorted without re-sorting); an
// arrival that touches nothing and whose candidate span has already
// passed the fire horizon is late — dropped and counted.

// session is one open activity span: [start, end) with end = the last
// event time plus the gap.
type session struct {
	start, end int64
	st         *aggState
}

// addSession folds one arrival into the per-key session state.
func (a *aggregator) addSession(t *tuple.Tuple, rt *Runtime) {
	et := t.EventTime
	v := a.fieldValue(t)
	h, key, keyed := a.groupOf(t)
	lo, hi := et, et+a.gapNs

	list := a.sessGlobal
	if keyed {
		list = a.sessKeys[h]
	}

	var merged *session
	kept := list[:0]
	for _, s := range list {
		if s.start <= hi && lo <= s.end {
			if merged == nil {
				// First overlapping session absorbs the candidate span.
				merged = s
				if lo < s.start {
					s.start = lo
				}
				if hi > s.end {
					s.end = hi
				}
			} else {
				// The candidate span bridged two sessions: coalesce.
				if s.start < merged.start {
					merged.start = s.start
				}
				if s.end > merged.end {
					merged.end = s.end
				}
				merged.st.merge(s.st)
				continue
			}
		}
		kept = append(kept, s)
	}

	if merged != nil {
		// An open session is still open precisely because it has not
		// fired, so even an arrival older than the watermark may extend it.
		merged.st.fold(v, t.EventTime, t.Ingest)
	} else {
		if horizon := a.fireHorizon(); horizon != tuple.NoEventTime && hi <= horizon {
			// The session this arrival would open has already passed the
			// fire horizon: late beyond the allowed lateness.
			if rt != nil {
				rt.recordLateDrop()
			}
			return
		}
		s := &session{start: lo, end: hi, st: newAggState(key, keyed)}
		s.st.fold(v, t.EventTime, t.Ingest)
		i := len(kept)
		for i > 0 && kept[i-1].start > s.start {
			i--
		}
		kept = append(kept, nil)
		copy(kept[i+1:], kept[i:])
		kept[i] = s
	}

	if keyed {
		a.sessKeys[h] = kept
	} else {
		a.sessGlobal = kept
	}
}

// firedSession carries one closed session to the deterministic global
// sort before emission.
type firedSession struct {
	start int64
	h     uint64
	st    *aggState
}

// fireSessions emits and evicts every session whose end passed the
// horizon, ordered by (start, key hash) so emission is deterministic
// whatever the map's iteration order.
func (a *aggregator) fireSessions(horizon int64, emit func(*tuple.Tuple)) {
	if horizon == tuple.NoEventTime {
		return
	}
	var due []firedSession
	for h, list := range a.sessKeys {
		kept := list[:0]
		for _, s := range list {
			if s.end <= horizon {
				due = append(due, firedSession{start: s.start, h: h, st: s.st})
			} else {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			delete(a.sessKeys, h)
		} else {
			a.sessKeys[h] = kept
		}
	}
	kept := a.sessGlobal[:0]
	for _, s := range a.sessGlobal {
		if s.end <= horizon {
			due = append(due, firedSession{start: s.start, st: s.st})
		} else {
			kept = append(kept, s)
		}
	}
	a.sessGlobal = kept
	sort.Slice(due, func(i, j int) bool {
		if due[i].start != due[j].start {
			return due[i].start < due[j].start
		}
		return due[i].h < due[j].h
	})
	for _, f := range due {
		emit(f.st.result(a.spec.Fn))
	}
}

// openSessions counts the live sessions across all keys (test
// introspection).
func (a *aggregator) openSessions() int {
	n := len(a.sessGlobal)
	for _, list := range a.sessKeys {
		n += len(list)
	}
	return n
}
