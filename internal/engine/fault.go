package engine

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"pdspbench/internal/chaos"
	"pdspbench/internal/core"
)

// This file is the engine half of the chaos layer (internal/chaos):
// a fault driver goroutine replays the resolved schedule on the wall
// clock, and a per-instance supervisor turns crashes — injected kills
// and genuine panics alike — into bounded restarts with exponential
// backoff. When an operator's last instance dies with no budget left,
// the supervisor drains the dead instance's input and forwards its
// end-of-stream markers so the dataflow finishes instead of hanging,
// and Run returns a typed *chaos.FaultError.
//
// The no-fault hot path stays zero-cost: every per-tuple or per-batch
// hook below is guarded by a nil pointer (opInstance.flt, router.lf)
// that is only populated when Options.Faults is non-empty.

// CrashError is the typed form of a recovered instance panic — the
// supervisor re-wraps whatever recover() returned so crash causes flow
// through the error plane instead of being swallowed (enforced by
// pdsplint's recover-discipline rule).
type CrashError struct {
	// Op is the crashed instance's operator.
	Op string
	// Instance is the parallel instance index.
	Instance int
	// Cause is the recovered panic value.
	Cause any
}

func (e *CrashError) Error() string {
	return "engine: instance " + strconv.Itoa(e.Instance) + " of operator " +
		strconv.Quote(e.Op) + " crashed"
}

// errInjectedCrash is the panic value of a chaos-injected kill; the
// supervisor treats it exactly like a genuine panic.
var errInjectedCrash = errors.New("engine: injected instance crash")

// instFault is the per-instance fault state the driver writes and the
// instance goroutine polls. All fields are atomics: the driver and the
// instance never share a lock, so the data plane takes no new mutexes.
type instFault struct {
	// kill wakes a blocked instance; killed is the authoritative flag
	// (the channel send is best-effort, the flag is checked at every
	// message boundary).
	kill   chan struct{}
	killed atomic.Bool
	// downFor, when positive, marks the pending kill as a node-down
	// outage: the supervisor revives after this many nanoseconds
	// without consuming the restart budget.
	downFor atomic.Int64
	// stallUntil pauses source emission until this wall-clock nanotime.
	stallUntil atomic.Int64
	// slowUntil/slowPerTuple charge extra nanoseconds per tuple while
	// a slow-node window is active.
	slowUntil    atomic.Int64
	slowPerTuple atomic.Int64
}

// linkFault is the shared state of a link fault targeting one
// downstream operator; routers feeding that operator consult it.
type linkFault struct {
	dropUntil  atomic.Int64 // wall nanotime; tuples are dropped before it
	delayUntil atomic.Int64
	delayNanos atomic.Int64
}

// shouldDrop reports whether a delivery into the target is inside an
// active link-drop window.
func (lf *linkFault) shouldDrop() bool {
	until := lf.dropUntil.Load()
	return until != 0 && time.Now().UnixNano() < until
}

// applyDelay sleeps out an active link-delay window's per-batch delay,
// modelling a congested link: the sender stalls, which is exactly how
// bounded network buffers propagate link latency into backpressure.
func (lf *linkFault) applyDelay() {
	until := lf.delayUntil.Load()
	if until == 0 || time.Now().UnixNano() >= until {
		return
	}
	time.Sleep(time.Duration(lf.delayNanos.Load()))
}

// setupFaults wires the fault state after build(): per-instance kill
// state and link-fault state per targeted downstream operator. Called
// only when Options.Faults is non-empty.
func (r *Runtime) setupFaults() {
	if r.opts.RestartDelay <= 0 {
		r.opts.RestartDelay = 20 * time.Millisecond
	}
	// Defensive copy, sorted by time: the driver walks it in order.
	evs := append([]chaos.Event(nil), r.opts.Faults...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	r.opts.Faults = evs
	for _, insts := range r.insts {
		for _, inst := range insts {
			inst.flt = &instFault{kill: make(chan struct{}, 1)}
		}
	}
	r.linkFaults = make(map[string]*linkFault)
	for _, ev := range evs {
		if ev.Kind == chaos.KindLinkDelay || ev.Kind == chaos.KindLinkDrop {
			if _, ok := r.linkFaults[ev.Op]; !ok {
				r.linkFaults[ev.Op] = &linkFault{}
			}
		}
	}
	// Point every router feeding a targeted operator at its fault state.
	for _, insts := range r.insts {
		for _, inst := range insts {
			for _, route := range inst.routes {
				if len(route.targets) > 0 {
					route.lf = r.linkFaults[route.targets[0].op.ID]
				}
			}
		}
	}
	r.report.deadOf = make(map[string]int)
}

// driveFaults replays the schedule on the wall clock, measuring event
// times from the run's start. It exits when the schedule is exhausted
// or the run ends (ctx is cancelled by Run after the dataflow drains).
func (r *Runtime) driveFaults(ctx context.Context, start time.Time) {
	tm := time.NewTimer(time.Hour)
	defer tm.Stop()
	for _, ev := range r.opts.Faults {
		due := time.Duration(ev.At * float64(time.Second))
		if wait := due - time.Since(start); wait > 0 {
			if !tm.Stop() {
				select {
				case <-tm.C:
				default:
				}
			}
			tm.Reset(wait)
			select {
			case <-tm.C:
			case <-ctx.Done():
				return
			}
		}
		r.applyFault(ev)
	}
}

// applyFault applies one primitive event to its target instances.
func (r *Runtime) applyFault(ev chaos.Event) {
	r.report.mu.Lock()
	r.report.faultsInjected++
	r.report.mu.Unlock()
	now := time.Now().UnixNano()
	durNanos := int64(ev.Duration * 1e9)
	switch ev.Kind {
	case chaos.KindCrash, chaos.EvDown:
		for _, oi := range r.targetInstances(ev) {
			if ev.Kind == chaos.EvDown {
				oi.flt.downFor.Store(durNanos)
			}
			oi.flt.killed.Store(true)
			select {
			case oi.flt.kill <- struct{}{}:
			default:
			}
		}
	case chaos.EvStall:
		for _, oi := range r.targetInstances(ev) {
			oi.flt.stallUntil.Store(now + durNanos)
		}
	case chaos.EvSlow:
		for _, oi := range r.targetInstances(ev) {
			// The engine has no service-time model, so a slowed node is
			// approximated by charging Factor microseconds per tuple to
			// its instances for the window.
			oi.flt.slowPerTuple.Store(int64(ev.Factor * 1e3))
			oi.flt.slowUntil.Store(now + durNanos)
		}
	case chaos.KindLinkDelay:
		if lf := r.linkFaults[ev.Op]; lf != nil {
			lf.delayNanos.Store(int64(ev.Factor * 1e9))
			lf.delayUntil.Store(now + durNanos)
		}
	case chaos.KindLinkDrop:
		if lf := r.linkFaults[ev.Op]; lf != nil {
			lf.dropUntil.Store(now + durNanos)
		}
	}
}

// targetInstances resolves an event to the instances hosting its
// operator.
func (r *Runtime) targetInstances(ev chaos.Event) []*opInstance {
	insts := r.insts[ev.Op]
	if ev.Instance < 0 || len(insts) == 0 {
		return insts
	}
	idx := ev.Instance
	if idx >= len(insts) {
		idx = len(insts) - 1
	}
	return insts[idx : idx+1]
}

// supervise runs one instance to completion. Without a fault plan it
// is exactly the pre-chaos direct call; with one, it captures panics
// (injected kills and genuine bugs alike), revives the instance while
// the restart budget lasts — node-down outages revive on their
// scheduled recovery without consuming budget — and otherwise declares
// the instance dead in a way that cannot hang the dataflow.
func (r *Runtime) supervise(ctx context.Context, oi *opInstance) {
	if oi.flt == nil {
		oi.run(ctx)
		return
	}
	restarts := 0
	revived := 0
	for {
		before := oi.workDone()
		crash := oi.runGuarded(ctx)
		if revived > 0 {
			r.addRecovered(oi.workDone() - before)
		}
		if crash == nil {
			return
		}
		downFor := time.Duration(oi.flt.downFor.Swap(0))
		oi.flt.killed.Store(false)
		select { // drop a stale wake-up from the life that just ended
		case <-oi.flt.kill:
		default:
		}
		if downFor <= 0 {
			if restarts >= r.opts.MaxRestarts {
				r.declareDead(ctx, oi, crash)
				return
			}
			restarts++
			// Bounded exponential backoff on budgeted restarts.
			downFor = r.opts.RestartDelay << (restarts - 1)
		}
		r.recordRestart(downFor)
		revived++
		tm := time.NewTimer(downFor)
		select {
		case <-tm.C:
		case <-ctx.Done():
			tm.Stop()
			return
		}
	}
}

// runGuarded executes one life of the instance, re-wrapping a panic
// into the typed crash error the supervisor consumes.
func (oi *opInstance) runGuarded(ctx context.Context) (crash *CrashError) {
	defer func() {
		if v := recover(); v != nil {
			crash = &CrashError{Op: oi.op.ID, Instance: oi.idx, Cause: v}
		}
	}()
	oi.run(ctx)
	return nil
}

// workDone is a monotone per-instance progress counter used to account
// tuples processed by revived lives (RecoveredTuples).
func (oi *opInstance) workDone() uint64 {
	if oi.op.Kind == core.OpSource {
		return oi.nOut
	}
	return oi.nIn
}

// declareDead retires an instance whose restart budget is exhausted.
// Its routes deliver their end-of-stream markers (idempotent per
// target, so a crash mid-EOS cannot double-count), and its input is
// drained until every upstream producer has finished — so neither side
// of the dead instance can block forever. If it was the operator's
// last live instance, the run's fatal error becomes a typed
// *chaos.FaultError.
func (r *Runtime) declareDead(ctx context.Context, oi *opInstance, crash *CrashError) {
	head := oi.op
	r.report.mu.Lock()
	r.report.deadOf[head.ID]++
	if r.report.deadOf[head.ID] >= len(r.insts[head.ID]) && r.report.fatal == nil {
		r.report.fatal = &chaos.FaultError{Op: head.ID, Kind: chaos.KindCrash}
	}
	r.report.mu.Unlock()
	for _, rt := range oi.routes {
		rt.eos(ctx)
	}
	if head.Kind == core.OpSource {
		return
	}
	for !oi.allEOS() {
		select {
		case msg := <-oi.in:
			switch {
			case msg.kind == msgEOS:
				oi.gotEOS[msg.side]++
			case msg.kind == msgWatermark:
				// Watermarks carry no payload; a dead instance just
				// swallows them.
			case msg.cb != nil:
				msg.cb.Release()
			default:
				for _, t := range *msg.b {
					t.Release()
				}
				putBatch(msg.b)
			}
		case <-ctx.Done():
			return
		}
	}
}

func (r *Runtime) addRecovered(n uint64) {
	r.report.mu.Lock()
	r.report.recoveredTuples += n
	r.report.mu.Unlock()
}

func (r *Runtime) recordRestart(downtime time.Duration) {
	r.report.mu.Lock()
	r.report.restarts++
	r.report.downtime += downtime
	r.report.mu.Unlock()
}

// killChan returns the instance's kill channel, or nil without a fault
// plan — a nil channel never fires in a select, so the no-fault path
// pays nothing for the extra case.
func (oi *opInstance) killChan() chan struct{} {
	if oi.flt == nil {
		return nil
	}
	return oi.flt.kill
}

// maybeStall pauses a source inside an active stall window; the sleep
// is interruptible by kills and cancellation. Called with flt != nil.
func (oi *opInstance) maybeStall(ctx context.Context, killC <-chan struct{}) {
	until := oi.flt.stallUntil.Load()
	if until == 0 {
		return
	}
	wait := time.Duration(until - time.Now().UnixNano())
	if wait <= 0 {
		return
	}
	tm := time.NewTimer(wait)
	defer tm.Stop()
	select {
	case <-tm.C:
	case <-killC:
		panic(errInjectedCrash)
	case <-ctx.Done():
	}
}

// maybeSlow charges the slow-node penalty for n tuples if a slow
// window is active. Called with flt != nil.
func (oi *opInstance) maybeSlow(n int) {
	until := oi.flt.slowUntil.Load()
	if until == 0 || time.Now().UnixNano() >= until {
		return
	}
	time.Sleep(time.Duration(int64(n) * oi.flt.slowPerTuple.Load()))
}
