package engine

import (
	"fmt"
	"math"
	"strings"
	"time"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/obs/ledger"
)

// Instrumented wraps one plan node with execution-feedback recording:
// per-operator batch and row counts plus Open/Next/Close wall time,
// accumulated into Stats. The wrapper is a pure pass-through for both
// batches and cost counters — instrumenting a plan never changes its
// results or its cost.Counters, a property pinned by a differential
// test over the random SPJ corpus.
type Instrumented struct {
	// Origin is the node exactly as the optimizer built it; estimate
	// lookups (optimizer.Plan.EstimateOf) key on this pointer.
	Origin Node
	// Inner is a shallow copy of Origin whose children were replaced by
	// the wrapped Kids, so every pull through this subtree crosses the
	// wrappers. Leaves keep Inner == Origin.
	Inner Node
	Kids  []*Instrumented
	Stats *obs.OpStats
	// Trace, when non-nil, receives one span per operator lifetime
	// (Open through Close).
	Trace *obs.Trace

	// opts is set only on the root wrapper (by InstrumentOpts); it holds
	// the query-lifecycle sinks the root drives for the whole tree.
	opts *InstrumentOptions
	// ledgerRows is the Stats.Rows watermark already fed to the ledger,
	// so repeated executions of the same instrumented tree append the
	// per-execution delta, not the cumulative total.
	ledgerRows int64
}

// InstrumentOptions bundles the query-lifecycle sinks an instrumented
// execution feeds. Every field is optional; the zero value reproduces
// plain Instrument behavior exactly.
type InstrumentOptions struct {
	// Trace receives one span per operator lifetime.
	Trace *obs.Trace
	// EstimateOf resolves the optimizer's planning-time snapshot for an
	// original node (optimizer.Plan.EstimateOf). Required for ledger
	// feedback: only estimates carrying a fingerprint are appended.
	EstimateOf func(Node) (obs.EstimateSnapshot, bool)
	// Ledger, when non-nil, receives one cardinality feedback observation
	// per fingerprinted operator when the root closes.
	Ledger *ledger.Ledger
	// QueryID, when non-empty, is stamped on the root operator's span so
	// traces correlate with the event and slow-query logs.
	QueryID string
	// Live, when non-nil, receives the rows produced by the plan root as
	// they stream out — the numerator of /debug/queries progress.
	Live *obs.QueryLive
}

// InstrumentOpts is Instrument with the full set of query-lifecycle
// sinks. The returned root drives them; the wrappers below it behave
// exactly as plain Instrument wrappers.
func InstrumentOpts(root Node, opts InstrumentOptions) *Instrumented {
	n := instrument(root, opts.Trace)
	n.opts = &opts
	return n
}

// Instrument returns an instrumented copy of the plan rooted at root.
// The original tree is left untouched and remains executable.
func Instrument(root Node) *Instrumented { return instrument(root, nil) }

func instrument(n Node, tr *obs.Trace) *Instrumented {
	kids := Children(n)
	wrapped := make([]*Instrumented, len(kids))
	asNodes := make([]Node, len(kids))
	for i, k := range kids {
		wrapped[i] = instrument(k, tr)
		asNodes[i] = wrapped[i]
	}
	inner := n
	if len(kids) > 0 {
		inner = replaceChildren(n, asNodes)
	}
	return &Instrumented{Origin: n, Inner: inner, Kids: wrapped, Stats: &obs.OpStats{}, Trace: tr}
}

// replaceChildren returns a shallow copy of n with its children — in
// the order reported by children — replaced by kids. Nodes without
// children are returned unchanged. The switch must mirror children.
func replaceChildren(n Node, kids []Node) Node {
	switch t := n.(type) {
	case *Filter:
		cp := *t
		cp.Input = kids[0]
		return &cp
	case *Project:
		cp := *t
		cp.Input = kids[0]
		return &cp
	case *Aggregate:
		cp := *t
		cp.Input = kids[0]
		return &cp
	case *Sort:
		cp := *t
		cp.Input = kids[0]
		return &cp
	case *Limit:
		cp := *t
		cp.Input = kids[0]
		return &cp
	case *Exchange:
		cp := *t
		cp.Source = kids[0]
		return &cp
	case *HashJoin:
		cp := *t
		cp.Build, cp.Probe = kids[0], kids[1]
		return &cp
	case *MergeJoin:
		cp := *t
		cp.Left, cp.Right = kids[0], kids[1]
		return &cp
	case *INLJoin:
		cp := *t
		cp.Outer = kids[0]
		return &cp
	case *StarSemiJoin:
		cp := *t
		cp.Dims = append([]StarDim(nil), t.Dims...)
		for i := range cp.Dims {
			cp.Dims[i].Scan = kids[i]
		}
		return &cp
	default:
		return n
	}
}

// OpName returns the operator-type name of a plan node, used as the
// label for per-operator-type metrics and trace spans.
func OpName(n Node) string {
	switch t := n.(type) {
	case *SeqScan:
		return "SeqScan"
	case *IndexRangeScan:
		return "IndexRangeScan"
	case *IndexIntersect:
		return "IndexIntersect"
	case *HashJoin:
		return "HashJoin"
	case *MergeJoin:
		return "MergeJoin"
	case *INLJoin:
		return "INLJoin"
	case *StarSemiJoin:
		return "StarSemiJoin"
	case *Filter:
		return "Filter"
	case *Project:
		return "Project"
	case *Aggregate:
		return "Aggregate"
	case *Sort:
		return "Sort"
	case *Limit:
		return "Limit"
	case *Exchange:
		return "Exchange"
	case *Instrumented:
		return OpName(t.Inner)
	default:
		d := n.Describe()
		if i := strings.IndexByte(d, '('); i > 0 {
			return d[:i]
		}
		return d
	}
}

// LeafTables returns the base tables of a plan in left-to-right leaf
// order — the join-order signature used for plan-choice metrics.
func LeafTables(root Node) []string {
	switch t := root.(type) {
	case *SeqScan:
		return []string{t.Table}
	case *IndexRangeScan:
		return []string{t.Table}
	case *IndexIntersect:
		return []string{t.Table}
	case *INLJoin:
		return append(LeafTables(t.Outer), t.InnerTable)
	case *StarSemiJoin:
		out := []string{t.Fact}
		for _, d := range t.Dims {
			out = append(out, LeafTables(d.Scan)...)
		}
		return out
	case *Instrumented:
		return LeafTables(t.Inner)
	default:
		var out []string
		for _, c := range Children(root) {
			out = append(out, LeafTables(c)...)
		}
		return out
	}
}

// Schema implements Node.
func (n *Instrumented) Schema(ctx *Context) (expr.RelSchema, error) {
	return n.Inner.Schema(ctx)
}

// Stream implements Node.
func (n *Instrumented) Stream() Operator { return &instrumentedOp{node: n} }

// Describe implements Node.
func (n *Instrumented) Describe() string { return n.Inner.Describe() }

// instrumentedOp is the pass-through streaming wrapper: it forwards
// every call to the wrapped operator unchanged — same context, same
// counters pointer, same batches — while timing the calls and counting
// what flows through.
type instrumentedOp struct {
	node   *Instrumented
	inner  Operator
	span   *obs.Span
	closed bool
}

func (o *instrumentedOp) Open(ctx *Context, counters *cost.Counters) error {
	o.span = o.node.Trace.StartSpan("op:" + OpName(o.node.Inner))
	if o.node.opts != nil && o.node.opts.QueryID != "" {
		o.span.SetAttr("qid", o.node.opts.QueryID)
	}
	start := time.Now()
	if o.inner == nil {
		// foldStream presets a folding inner stream.
		o.inner = o.node.Inner.Stream()
	}
	err := o.inner.Open(ctx, counters)
	o.node.Stats.OpenTime += time.Since(start)
	o.node.Stats.Opens++
	return err
}

func (o *instrumentedOp) Next() (*Batch, error) {
	start := time.Now()
	b, err := o.inner.Next()
	st := o.node.Stats
	st.NextTime += time.Since(start)
	if b != nil {
		st.Batches++
		st.Rows += int64(b.Len())
		if o.node.opts != nil {
			o.node.opts.Live.AddRows(int64(b.Len()))
		}
	}
	return b, err
}

func (o *instrumentedOp) Close() {
	if o.inner != nil {
		start := time.Now()
		o.inner.Close()
		if !o.closed {
			o.closed = true
			o.node.Stats.CloseTime += time.Since(start)
			if o.span != nil {
				o.span.SetAttr("rows", fmt.Sprintf("%d", o.node.Stats.Rows))
				o.span.SetAttr("batches", fmt.Sprintf("%d", o.node.Stats.Batches))
			}
			// The root wrapper flushes cardinality feedback once the whole
			// tree has closed: by then every bypassed wrapper's stats have
			// been fed (Exchange merges at its barrier, inside the inner
			// Close above).
			o.node.flushLedger()
		}
	}
	o.span.End()
}

// flushLedger appends one cardinality feedback observation per
// fingerprinted operator of the tree rooted here. A no-op unless this is
// the root wrapper of an InstrumentOpts tree with a ledger and an
// estimate source. Appends happen leaf-first, mirroring the order
// operators finish producing.
func (n *Instrumented) flushLedger() {
	opts := n.opts
	if opts == nil || opts.Ledger == nil || opts.EstimateOf == nil {
		return
	}
	var walk func(m *Instrumented)
	walk = func(m *Instrumented) {
		for _, k := range m.Kids {
			walk(k)
		}
		est, ok := opts.EstimateOf(m.Origin)
		if !ok || est.Fingerprint == "" {
			return
		}
		actual := m.Stats.Rows - m.ledgerRows
		m.ledgerRows = m.Stats.Rows
		table := ""
		if lt := LeafTables(m.Inner); len(lt) > 0 {
			table = lt[0]
		}
		opts.Ledger.Append(ledger.Observation{
			Fingerprint:  est.Fingerprint,
			Table:        table,
			EstRows:      est.Rows,
			ActualRows:   actual,
			Percentile:   est.Percentile,
			PartsScanned: est.PartsScanned,
			PartsTotal:   est.PartsTotal,
		})
	}
	walk(n)
}

// AnalyzeOptions configures ExplainAnalyze rendering.
type AnalyzeOptions struct {
	// EstimateOf returns the optimizer's planning-time snapshot for an
	// original (pre-instrumentation) node; typically
	// optimizer.Plan.EstimateOf. Nil renders actuals only.
	EstimateOf func(Node) (obs.EstimateSnapshot, bool)
	// Timings appends wall-clock open/next/close times per operator.
	// Leave it off for deterministic output (golden tests).
	Timings bool
	// Totals, when non-nil, appends the plan-wide cost counters as a
	// trailing line.
	Totals *cost.Counters
}

// ExplainAnalyze renders the instrumented plan tree with, per operator,
// the estimated rows, actual rows, and Q-error — the EXPLAIN ANALYZE
// output. When the estimate carries a posterior percentile T, it is
// shown so runs at different confidence thresholds are comparable.
func ExplainAnalyze(root *Instrumented, opts AnalyzeOptions) string {
	var b strings.Builder
	var walk func(n *Instrumented, depth int)
	walk = func(n *Instrumented, depth int) {
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		b.WriteString(n.Describe())
		st := n.Stats
		b.WriteString("  (")
		wroteEst := false
		if opts.EstimateOf != nil {
			if est, ok := opts.EstimateOf(n.Origin); ok {
				fmt.Fprintf(&b, "est=%.1f act=%d q=%.2f", est.Rows, st.Rows, obs.QError(est.Rows, float64(st.Rows)))
				if est.Percentile > 0 {
					fmt.Fprintf(&b, " T=%g%%", math.Round(est.Percentile*10000)/100)
				}
				if est.PartsTotal > 0 {
					fmt.Fprintf(&b, " partitions: %d/%d", est.PartsScanned, est.PartsTotal)
				}
				if est.SegsTotal > 0 {
					fmt.Fprintf(&b, " segments: %d/%d skipped", est.SegsSkipped, est.SegsTotal)
				}
				wroteEst = true
			}
		}
		if !wroteEst {
			fmt.Fprintf(&b, "est=? act=%d", st.Rows)
		}
		fmt.Fprintf(&b, " batches=%d", st.Batches)
		if opts.Timings {
			fmt.Fprintf(&b, " open=%s next=%s close=%s",
				st.OpenTime.Round(time.Microsecond),
				st.NextTime.Round(time.Microsecond),
				st.CloseTime.Round(time.Microsecond))
		}
		b.WriteString(")\n")
		for _, kid := range n.Kids {
			walk(kid, depth+1)
		}
	}
	walk(root, 0)
	if opts.Totals != nil {
		fmt.Fprintf(&b, "counters: %s\n", opts.Totals)
	}
	return b.String()
}
