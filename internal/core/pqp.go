package core

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"pdspbench/internal/tuple"
)

// SourceSpec configures a source operator: its output schema and the
// nominal event rate (events/second) at which the attached generator
// produces tuples.
type SourceSpec struct {
	Schema    *tuple.Schema `json:"schema"`
	EventRate float64       `json:"event_rate"`
	// Distribution of inter-arrival times: "poisson" (default) or "zipf"
	// for skewed key popularity combined with Poisson arrivals.
	Distribution string `json:"distribution,omitempty"`
	// Disorder, when set, delivers this source's tuples out of event-time
	// order; the engine wraps the generator in a disorder buffer and the
	// simulator mirrors the resulting watermark lag analytically.
	Disorder *DisorderSpec `json:"disorder,omitempty"`
}

// Disorder kinds understood by both backends.
const (
	// DisorderBounded delays each tuple by an independent uniform draw in
	// [0, MaxSkewMs]. With the source's watermark skew allowance set to the
	// same bound (which the engine does automatically), no tuple is ever
	// late: bounded disorder reorders but never drops.
	DisorderBounded = "bounded"
	// DisorderZipfBurst delays tuples by a Zipf-distributed draw scaled up
	// to 4×MaxSkewMs: most tuples arrive nearly in order while a heavy tail
	// straggles far past the watermark, producing genuine late drops.
	DisorderZipfBurst = "zipfburst"
)

// DisorderSpec configures out-of-order delivery at a source. MaxSkewMs
// bounds the typical event-time skew and doubles as the bounded-skew
// watermark heuristic's allowance (watermark = max event time − skew).
type DisorderSpec struct {
	Kind      string `json:"kind"` // DisorderBounded or DisorderZipfBurst
	MaxSkewMs int64  `json:"max_skew_ms"`
}

// Validate checks the disorder configuration.
func (d *DisorderSpec) Validate() error {
	switch d.Kind {
	case DisorderBounded, DisorderZipfBurst:
	default:
		return fmt.Errorf("core: unknown disorder kind %q (want %q or %q)", d.Kind, DisorderBounded, DisorderZipfBurst)
	}
	if d.MaxSkewMs <= 0 {
		return fmt.Errorf("core: disorder needs MaxSkewMs > 0, got %d", d.MaxSkewMs)
	}
	return nil
}

// FilterSpec configures a filter operator: the compared field, function,
// literal and the estimated selectivity (fraction of tuples that pass),
// which the workload generator guarantees is strictly inside (0, 1).
type FilterSpec struct {
	Field       int         `json:"field"`
	Fn          FilterFn    `json:"fn"`
	Literal     tuple.Value `json:"literal"`
	Selectivity float64     `json:"selectivity"`
}

// AggregateSpec configures a windowed aggregation. KeyField < 0 means a
// global (non-keyed) window.
type AggregateSpec struct {
	Window   WindowSpec `json:"window"`
	Fn       AggFn      `json:"fn"`
	Field    int        `json:"field"`
	KeyField int        `json:"key_field"`
}

// JoinSpec configures a windowed equi-join between the operator's two
// upstream inputs. Fields index into the respective input schemas.
type JoinSpec struct {
	Window     WindowSpec `json:"window"`
	LeftField  int        `json:"left_field"`
	RightField int        `json:"right_field"`
}

// UDOSpec describes a user-defined operator. The real engine executes its
// Logic (looked up by Name in the application registry); the simulator
// uses the cost coefficients, which the applications calibrate to their
// actual computational profile.
type UDOSpec struct {
	Name string `json:"name"`
	// CostFactor scales per-tuple CPU work relative to a plain filter (=1).
	CostFactor float64 `json:"cost_factor"`
	// StateFactor scales the per-instance state-coordination overhead that
	// grows with parallelism; 0 for stateless UDOs.
	StateFactor float64 `json:"state_factor"`
	// Selectivity is the expected output/input tuple ratio.
	Selectivity float64 `json:"selectivity"`
}

// Operator is one logical node of a PQP. Exactly one of the spec pointers
// matching Kind is set.
type Operator struct {
	ID          string            `json:"id"`
	Kind        OpKind            `json:"kind"`
	Name        string            `json:"name,omitempty"`
	Parallelism int               `json:"parallelism"`
	Partition   PartitionStrategy `json:"partition"` // routing of inputs INTO this operator

	Source *SourceSpec    `json:"source,omitempty"`
	Filter *FilterSpec    `json:"filter,omitempty"`
	Agg    *AggregateSpec `json:"aggregate,omitempty"`
	Join   *JoinSpec      `json:"join,omitempty"`
	UDO    *UDOSpec       `json:"udo,omitempty"`

	// OutWidth is the tuple width this operator emits; the cost models
	// feature it and the simulator uses it for network transfer sizing.
	OutWidth int `json:"out_width"`

	// CostScale multiplies the operator's default per-tuple cost factor
	// (0 means 1). Applications use it to mark unusually cheap or heavy
	// instances of standard operators, e.g. word count's trivial counting
	// window versus a full aggregate.
	CostScale float64 `json:"cost_scale,omitempty"`
}

// Selectivity returns the expected output/input ratio of the operator.
// Sources and sinks return 1. A UDOSpec attached to any operator kind
// (apps attach them to map/flatMap operators too) takes precedence.
func (o *Operator) Selectivity() float64 {
	if o.UDO != nil && o.UDO.Selectivity > 0 {
		return o.UDO.Selectivity
	}
	switch o.Kind {
	case OpFilter:
		if o.Filter != nil && o.Filter.Selectivity > 0 {
			return o.Filter.Selectivity
		}
		return 0.5
	case OpAggregate:
		if o.Agg != nil {
			// One output per window firing: selectivity = 1/slide for
			// count windows; time windows depend on rate and are treated
			// by the simulator directly, so approximate with slide length.
			s := o.Agg.Window.Slide()
			if s > 0 {
				return 1 / s
			}
		}
		return 0.01
	case OpFlatMap:
		return 2 // flatMap typically expands (e.g. splitting sentences)
	case OpUDO:
		if o.UDO != nil && o.UDO.Selectivity > 0 {
			return o.UDO.Selectivity
		}
		return 1
	case OpJoin:
		return 1 // join match rate is modelled separately by the simulator
	default:
		return 1
	}
}

// CostFactor returns per-tuple CPU work relative to a filter (=1). A
// UDOSpec attached to any operator kind takes precedence, and CostScale
// scales the result.
func (o *Operator) CostFactor() float64 {
	scale := o.CostScale
	if scale <= 0 {
		scale = 1
	}
	if o.UDO != nil && o.UDO.CostFactor > 0 {
		return o.UDO.CostFactor * scale
	}
	return scale * o.baseCostFactor()
}

func (o *Operator) baseCostFactor() float64 {
	switch o.Kind {
	case OpSource:
		return 0.3
	case OpFilter:
		return 1
	case OpMap:
		return 1.2
	case OpFlatMap:
		return 2.5
	case OpAggregate:
		return 3
	case OpJoin:
		return 6
	case OpUDO:
		if o.UDO != nil && o.UDO.CostFactor > 0 {
			return o.UDO.CostFactor
		}
		return 4
	case OpSink:
		return 0.5
	default:
		return 1
	}
}

// IsWindowed reports whether the operator maintains window state.
func (o *Operator) IsWindowed() bool {
	return o.Kind == OpAggregate || o.Kind == OpJoin
}

// WindowSpecOf returns the operator's window spec, or nil.
func (o *Operator) WindowSpecOf() *WindowSpec {
	switch {
	case o.Kind == OpAggregate && o.Agg != nil:
		return &o.Agg.Window
	case o.Kind == OpJoin && o.Join != nil:
		return &o.Join.Window
	}
	return nil
}

// Label is a short human-readable label for figures and DOT output.
func (o *Operator) Label() string {
	if o.Name != "" {
		return o.Name
	}
	return fmt.Sprintf("%s[%s]", o.Kind, o.ID)
}

// Edge is a directed dataflow connection between two operators.
type Edge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// PQP is a parallel query plan: a DAG of operators with explicit
// parallelism degrees (the paper's footnote 2: "a given query structure
// with parallelism degrees").
type PQP struct {
	Name      string      `json:"name"`
	Structure string      `json:"structure"` // e.g. "linear", "3-way-join", "smart-grid"
	Operators []*Operator `json:"operators"`
	Edges     []Edge      `json:"edges"`

	byID map[string]*Operator
}

// NewPQP creates an empty plan.
func NewPQP(name, structure string) *PQP {
	return &PQP{Name: name, Structure: structure, byID: make(map[string]*Operator)}
}

// Add appends an operator; it panics on a duplicate ID (a builder bug).
func (p *PQP) Add(op *Operator) *Operator {
	if p.byID == nil {
		p.rebuildIndex()
	}
	if _, dup := p.byID[op.ID]; dup {
		panic(fmt.Sprintf("core: duplicate operator id %q in plan %q", op.ID, p.Name))
	}
	if op.Parallelism <= 0 {
		op.Parallelism = 1
	}
	p.Operators = append(p.Operators, op)
	p.byID[op.ID] = op
	return op
}

// Connect adds the edge from → to.
func (p *PQP) Connect(from, to string) {
	p.Edges = append(p.Edges, Edge{From: from, To: to})
}

// Op returns the operator with the given ID, or nil.
func (p *PQP) Op(id string) *Operator {
	if p.byID == nil {
		p.rebuildIndex()
	}
	return p.byID[id]
}

func (p *PQP) rebuildIndex() {
	p.byID = make(map[string]*Operator, len(p.Operators))
	for _, op := range p.Operators {
		p.byID[op.ID] = op
	}
}

// Upstream returns the IDs of operators feeding op, in edge order
// (significant for joins: input 0 is the left side).
func (p *PQP) Upstream(id string) []string {
	var ups []string
	for _, e := range p.Edges {
		if e.To == id {
			ups = append(ups, e.From)
		}
	}
	return ups
}

// Downstream returns the IDs of operators fed by op.
func (p *PQP) Downstream(id string) []string {
	var downs []string
	for _, e := range p.Edges {
		if e.From == id {
			downs = append(downs, e.To)
		}
	}
	return downs
}

// Sources returns all source operators in plan order.
func (p *PQP) Sources() []*Operator {
	var srcs []*Operator
	for _, op := range p.Operators {
		if op.Kind == OpSource {
			srcs = append(srcs, op)
		}
	}
	return srcs
}

// Sinks returns all sink operators in plan order.
func (p *PQP) Sinks() []*Operator {
	var sinks []*Operator
	for _, op := range p.Operators {
		if op.Kind == OpSink {
			sinks = append(sinks, op)
		}
	}
	return sinks
}

// TopoOrder returns operator IDs in a topological order; it returns an
// error when the graph has a cycle or dangling edge.
func (p *PQP) TopoOrder() ([]string, error) {
	if p.byID == nil {
		p.rebuildIndex()
	}
	indeg := make(map[string]int, len(p.Operators))
	for _, op := range p.Operators {
		indeg[op.ID] = 0
	}
	for _, e := range p.Edges {
		if _, ok := p.byID[e.From]; !ok {
			return nil, fmt.Errorf("core: edge from unknown operator %q", e.From)
		}
		if _, ok := p.byID[e.To]; !ok {
			return nil, fmt.Errorf("core: edge to unknown operator %q", e.To)
		}
		indeg[e.To]++
	}
	// Deterministic order: seed the queue in plan order.
	var queue []string
	for _, op := range p.Operators {
		if indeg[op.ID] == 0 {
			queue = append(queue, op.ID)
		}
	}
	var order []string
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, d := range p.Downstream(id) {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(order) != len(p.Operators) {
		return nil, fmt.Errorf("core: plan %q contains a cycle", p.Name)
	}
	return order, nil
}

// Validate checks structural invariants: at least one source and one
// sink, acyclicity, sources have no inputs, sinks no outputs, joins have
// exactly two inputs, every other non-source operator has at least one
// input, windowed specs are valid, and parallelism degrees are positive.
func (p *PQP) Validate() error {
	if len(p.Sources()) == 0 {
		return fmt.Errorf("core: plan %q has no source", p.Name)
	}
	if len(p.Sinks()) == 0 {
		return fmt.Errorf("core: plan %q has no sink", p.Name)
	}
	if _, err := p.TopoOrder(); err != nil {
		return err
	}
	for _, op := range p.Operators {
		ups := p.Upstream(op.ID)
		downs := p.Downstream(op.ID)
		switch op.Kind {
		case OpSource:
			if len(ups) != 0 {
				return fmt.Errorf("core: source %q has %d inputs", op.ID, len(ups))
			}
			if op.Source == nil || op.Source.Schema == nil {
				return fmt.Errorf("core: source %q missing SourceSpec/schema", op.ID)
			}
			if op.Source.EventRate <= 0 {
				return fmt.Errorf("core: source %q has non-positive event rate", op.ID)
			}
			if op.Source.Disorder != nil {
				if err := op.Source.Disorder.Validate(); err != nil {
					return fmt.Errorf("core: source %q: %w", op.ID, err)
				}
			}
		case OpSink:
			if len(downs) != 0 {
				return fmt.Errorf("core: sink %q has %d outputs", op.ID, len(downs))
			}
			if len(ups) == 0 {
				return fmt.Errorf("core: sink %q has no input", op.ID)
			}
		case OpJoin:
			if len(ups) != 2 {
				return fmt.Errorf("core: join %q has %d inputs, want 2", op.ID, len(ups))
			}
			if op.Join == nil {
				return fmt.Errorf("core: join %q missing JoinSpec", op.ID)
			}
			if err := op.Join.Window.Validate(); err != nil {
				return fmt.Errorf("core: join %q: %w", op.ID, err)
			}
		case OpFilter:
			if op.Filter == nil {
				return fmt.Errorf("core: filter %q missing FilterSpec", op.ID)
			}
			if len(ups) == 0 {
				return fmt.Errorf("core: filter %q has no input", op.ID)
			}
		case OpAggregate:
			if op.Agg == nil {
				return fmt.Errorf("core: aggregate %q missing AggregateSpec", op.ID)
			}
			if err := op.Agg.Window.Validate(); err != nil {
				return fmt.Errorf("core: aggregate %q: %w", op.ID, err)
			}
			if len(ups) == 0 {
				return fmt.Errorf("core: aggregate %q has no input", op.ID)
			}
		default:
			if len(ups) == 0 {
				return fmt.Errorf("core: operator %q (%s) has no input", op.ID, op.Kind)
			}
		}
		if op.Parallelism <= 0 {
			return fmt.Errorf("core: operator %q has parallelism %d", op.ID, op.Parallelism)
		}
	}
	return nil
}

// Clone deep-copies the plan so that enumeration can vary parallelism
// degrees without aliasing.
func (p *PQP) Clone() *PQP {
	q := NewPQP(p.Name, p.Structure)
	for _, op := range p.Operators {
		c := *op
		if op.Source != nil {
			s := *op.Source
			if s.Disorder != nil {
				d := *s.Disorder
				s.Disorder = &d
			}
			c.Source = &s
		}
		if op.Filter != nil {
			f := *op.Filter
			c.Filter = &f
		}
		if op.Agg != nil {
			a := *op.Agg
			c.Agg = &a
		}
		if op.Join != nil {
			j := *op.Join
			c.Join = &j
		}
		if op.UDO != nil {
			u := *op.UDO
			c.UDO = &u
		}
		q.Add(&c)
	}
	q.Edges = append([]Edge(nil), p.Edges...)
	return q
}

// TotalInstances sums parallelism over all operators — the number of
// physical operator instances the plan deploys.
func (p *PQP) TotalInstances() int {
	var n int
	for _, op := range p.Operators {
		n += op.Parallelism
	}
	return n
}

// CountKind returns how many operators of the given kind the plan has.
func (p *PQP) CountKind(k OpKind) int {
	var n int
	for _, op := range p.Operators {
		if op.Kind == k {
			n++
		}
	}
	return n
}

// Complexity is a scalar complexity score used to order query structures
// in figures: operators weighted by their cost factor, with joins
// dominating, matching the paper's notion that "complexity of a PQP
// correlates both the composition of various operators and the
// parallelism degree".
func (p *PQP) Complexity() float64 {
	var c float64
	for _, op := range p.Operators {
		c += op.CostFactor()
	}
	return c
}

// MaxParallelism returns the largest per-operator parallelism degree.
func (p *PQP) MaxParallelism() int {
	m := 0
	for _, op := range p.Operators {
		if op.Parallelism > m {
			m = op.Parallelism
		}
	}
	return m
}

// SetUniformParallelism assigns the same degree to every non-source,
// non-sink operator (sources and sinks keep their configured degrees, as
// in the paper's experiments where parallelism categories apply to the
// processing operators).
func (p *PQP) SetUniformParallelism(degree int) {
	for _, op := range p.Operators {
		if op.Kind == OpSource || op.Kind == OpSink {
			continue
		}
		op.Parallelism = degree
	}
}

// InputRates computes the steady-state input rate (tuples/s) of every
// operator by pushing source rates through selectivities in topological
// order. Joins receive the sum of their inputs and emit at the rate of
// their slower side (the windowed match bound). Both the rule-based
// parallelism strategy and the cluster simulator's contention model use
// these rates.
func (p *PQP) InputRates() map[string]float64 {
	in, _ := p.propagateRates()
	return in
}

// OutputRates is the companion of InputRates: expected emission rates.
func (p *PQP) OutputRates() map[string]float64 {
	_, out := p.propagateRates()
	return out
}

func (p *PQP) propagateRates() (in, out map[string]float64) {
	in = make(map[string]float64, len(p.Operators))
	out = make(map[string]float64, len(p.Operators))
	order, err := p.TopoOrder()
	if err != nil {
		return in, out
	}
	for _, id := range order {
		op := p.Op(id)
		switch op.Kind {
		case OpSource:
			in[id] = op.Source.EventRate
			out[id] = op.Source.EventRate
		case OpJoin:
			var sum, min float64
			min = math.Inf(1)
			for _, u := range p.Upstream(id) {
				sum += out[u]
				if out[u] < min {
					min = out[u]
				}
			}
			if math.IsInf(min, 1) {
				min = 0
			}
			in[id] = sum
			out[id] = min
		default:
			var sum float64
			for _, u := range p.Upstream(id) {
				sum += out[u]
			}
			in[id] = sum
			out[id] = sum * op.Selectivity()
		}
	}
	return in, out
}

// String gives a one-line summary.
func (p *PQP) String() string {
	order, err := p.TopoOrder()
	if err != nil {
		return fmt.Sprintf("PQP(%s: invalid: %v)", p.Name, err)
	}
	parts := make([]string, 0, len(order))
	for _, id := range order {
		op := p.Op(id)
		parts = append(parts, fmt.Sprintf("%s×%d", op.Kind, op.Parallelism))
	}
	return fmt.Sprintf("PQP(%s: %s)", p.Name, strings.Join(parts, " → "))
}

// ToJSON serializes the plan for the workload store — the paper keeps
// generated workloads in a database so that corpora can be replayed and
// retrained without re-enumerating.
func (p *PQP) ToJSON() ([]byte, error) {
	return json.Marshal(p)
}

// FromJSON deserializes and validates a stored plan.
func FromJSON(data []byte) (*PQP, error) {
	var p PQP
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("core: decode plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// DOT renders the plan in Graphviz DOT format (the WUI substitute serves
// this for plan visualisation).
func (p *PQP) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", p.Name)
	ops := append([]*Operator(nil), p.Operators...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].ID < ops[j].ID })
	for _, op := range ops {
		fmt.Fprintf(&b, "  %q [label=\"%s\\np=%d\"];\n", op.ID, op.Label(), op.Parallelism)
	}
	for _, e := range p.Edges {
		fmt.Fprintf(&b, "  %q -> %q;\n", e.From, e.To)
	}
	b.WriteString("}\n")
	return b.String()
}
