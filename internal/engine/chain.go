package engine

import (
	"pdspbench/internal/core"
	"pdspbench/internal/tuple"
)

// Operator chaining (Options.ChainOperators) fuses runs of operators
// connected by forward partitioning with equal parallelism into single
// instances, exactly as Apache Flink chains tasks: fused operators
// exchange tuples by function call instead of a channel hop, removing
// per-tuple queueing and goroutine switches on the fused links.
//
// An operator B is chained onto A when
//   - A's only consumer is B and B's only producer is A,
//   - B uses forward partitioning,
//   - A and B have the same parallelism, and
//   - neither end is a source (sources keep their generator loop).
//
// Joins can never be chained onto (two producers); sinks can terminate a
// chain.

// chainedOp is one fused operator with its per-instance state.
type chainedOp struct {
	op   *core.Operator
	agg  *aggregator
	join *joiner
	udo  UDO
	nIn  uint64
	nOut uint64
	// emit feeds this operator's output into the next chain position (or
	// the instance's routes after the tail). It is built once per run in
	// bindEmit so the per-tuple path allocates no closures.
	emit func(*tuple.Tuple)
	// Columnar plane: the filter's compiled kernel and resolved field,
	// lazily built from the first batch's column kind (see kernelFor in
	// column.go). Nil until then; row-only chains never populate it.
	kern   core.Kernel
	kfield int
	// cudo and cout are the UDO's columnar fast path and its appender,
	// set only when the UDO implements ColumnUDO on a column-accepting
	// instance.
	cudo ColumnUDO
	cout *ColumnOut
}

// buildChains partitions the plan's operators into chains (each a slice
// of operators executed by one instance set, head first). Without
// chaining every operator is its own chain.
func buildChains(plan *core.PQP, enabled bool) ([][]string, error) {
	order, err := plan.TopoOrder()
	if err != nil {
		return nil, err
	}
	if !enabled {
		chains := make([][]string, 0, len(order))
		for _, id := range order {
			chains = append(chains, []string{id})
		}
		return chains, nil
	}
	canChain := func(aID, bID string) bool {
		a, b := plan.Op(aID), plan.Op(bID)
		if a.Kind == core.OpSource || b.Kind == core.OpSource {
			return false
		}
		if b.Partition != core.PartitionForward {
			return false
		}
		if a.Parallelism != b.Parallelism {
			return false
		}
		if len(plan.Downstream(aID)) != 1 || len(plan.Upstream(bID)) != 1 {
			return false
		}
		return true
	}
	assigned := make(map[string]bool, len(order))
	var chains [][]string
	for _, id := range order {
		if assigned[id] {
			continue
		}
		chain := []string{id}
		assigned[id] = true
		for {
			last := chain[len(chain)-1]
			downs := plan.Downstream(last)
			if len(downs) != 1 || assigned[downs[0]] || !canChain(last, downs[0]) {
				break
			}
			chain = append(chain, downs[0])
			assigned[downs[0]] = true
		}
		chains = append(chains, chain)
	}
	return chains, nil
}

// initState allocates the operator state of one chained op.
func (c *chainedOp) initState(oi *opInstance) {
	switch c.op.Kind {
	case core.OpAggregate:
		c.agg = newAggregator(c.op.Agg, oi.rt.opts.AllowedLateness.Nanoseconds())
	case core.OpJoin:
		c.join = newJoiner(c.op.Join, oi.rt.opts.AllowedLateness.Nanoseconds())
		c.join.rt = oi.rt
	case core.OpUDO, core.OpMap, core.OpFlatMap:
		if c.op.UDO != nil {
			c.udo = oi.rt.opts.UDOs[c.op.UDO.Name](oi.idx)
			if cu, ok := c.udo.(ColumnUDO); ok && oi.colOK {
				c.cudo = cu
				c.cout = &ColumnOut{kinds: cu.OutKinds(), rows: oi.rt.opts.ColumnarBatch, nOut: &c.nOut}
			}
		}
	}
}

// bindEmit builds the operator's emission closure once per run; the
// per-tuple path then reuses it instead of allocating a fresh closure
// for every arrival.
func (c *chainedOp) bindEmit(oi *opInstance, i int) {
	c.emit = func(out *tuple.Tuple) {
		c.nOut++
		oi.applyAt(i+1, out, 0)
	}
	if c.cout != nil {
		c.cout.next = func(cb *tuple.ColumnBatch) { oi.applyColumns(i+1, cb) }
	}
	if c.join != nil {
		if oi.colJoin {
			c.join.columnar = true
			c.join.outCap = oi.rt.opts.ColumnarBatch
			c.join.nOut = &c.nOut
			c.join.emitOut = oi.emitColumns
		} else {
			c.join.emitPair = func(arrived, buffered *tuple.Tuple, side int) {
				c.emit(c.join.joined(arrived, buffered, side))
			}
		}
	}
}

// applyAt runs operator semantics at chain position i, feeding emissions
// into position i+1 (or the instance's output routes after the tail).
//
// Ownership: a tuple belongs to whoever holds it last. Operators that
// consume a tuple without forwarding it (filter drops, aggregate folds,
// sink deliveries with no tap) release it back to the pool; windowed
// joins take ownership and release on eviction; UDOs take ownership and
// may retain or re-emit, so the engine never releases on their behalf.
func (oi *opInstance) applyAt(i int, t *tuple.Tuple, side int) {
	if i >= len(oi.chain) {
		oi.emit(t)
		return
	}
	c := oi.chain[i]
	c.nIn++
	switch c.op.Kind {
	case core.OpSink:
		oi.deliver(c.op.ID, t)
	case core.OpFilter:
		f := c.op.Filter
		field := f.Field
		if field >= t.Width() {
			field = 0
		}
		if f.Fn.Eval(t.At(field), f.Literal) {
			c.emit(t)
		} else {
			t.Release()
		}
	case core.OpAggregate:
		c.agg.add(t, c.emit, oi.rt)
		t.Release() // the aggregator folds values; it never retains t
	case core.OpJoin:
		c.join.add(t, side) // joiner owns t until window eviction
	case core.OpUDO, core.OpMap, core.OpFlatMap:
		if c.udo != nil {
			oi.safeProcess(c, t, c.emit)
			return
		}
		c.emit(t)
	default:
		c.emit(t)
	}
}

// safeProcess isolates user-defined operator failures: a panicking UDO
// drops the offending tuple and is counted, instead of tearing down the
// whole dataflow — the engine-level counterpart of a task restart, which
// lets the benchmark inject failures and keep measuring.
func (oi *opInstance) safeProcess(c *chainedOp, t *tuple.Tuple, emit func(*tuple.Tuple)) {
	defer func() {
		if r := recover(); r != nil {
			oi.rt.recordUDOPanic(&CrashError{Op: c.op.ID, Instance: oi.idx, Cause: r})
		}
	}()
	c.udo.Process(t, emit)
}

// flushChain drains every fused operator in order at end-of-stream, with
// each operator's flush output flowing through the remainder of the
// chain.
func (oi *opInstance) flushChain() {
	for _, c := range oi.chain {
		switch {
		case c.agg != nil:
			c.agg.flush(c.emit)
		case c.join != nil:
			c.join.flushColumns() // ship the partial columnar out-batch
			c.join.release()      // window buffers go back to the pool
		case c.udo != nil:
			c.udo.Flush(c.emit)
		}
	}
}
