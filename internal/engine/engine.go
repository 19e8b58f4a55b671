// Package engine implements the physical query execution layer: scans,
// index intersection, joins (indexed nested-loop, hash, merge), the
// semijoin-based star strategy, filters, projections, and aggregation.
//
// Operators execute for real over the in-memory tables — producing exact
// result rows — while recording the page- and tuple-level work they
// perform in cost.Counters. The simulated execution time of a query is the
// cost model applied to those counters; see package cost for how this
// substitutes for the paper's wall-clock measurements.
//
// Execution is a pull-based Open/Next/Close pipeline over column-oriented
// Batches (see Operator in batch.go): streaming operators charge work only
// as batches are actually pulled, so a LIMIT terminates its inputs early,
// while pipeline breakers (sort, aggregation, hash build, merge join, star
// dimension arms) consume their blocking inputs at Open. The leaf scans
// have one implementation, the morsel pipeline of parallel.go: a worker
// turns one window of at most BatchSize rows into rows of a Batch, and
// the same workers run serially (morselScanOp, DOP 1) or on an Exchange's
// goroutine pool, which is why counters agree at every DOP. Run is the
// drain: the one way to execute a plan to a Result, and the one place the
// root's output tuples are charged. The package's tests hold it against
// a materialize-everything reference engine kept in test code.
package engine

import (
	"fmt"

	"robustqo/internal/colstore"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/index"
	"robustqo/internal/obs"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// Context carries the runtime environment plans execute against.
type Context struct {
	DB      *storage.Database
	Indexes *index.Set
	Model   cost.Model
	// Metrics, when non-nil, receives the engine's operational series:
	//   - robustqo_hashjoin_builds_total, one per hash table built;
	//   - robustqo_columnar_segments_{scanned,skipped}_total, the zone
	//     verdict of every tile a SeqScan with a pushable filter prefix
	//     enters;
	//   - robustqo_exchange_*: rows and morsels per drain, worker busy
	//     ratio, row and shard skew, and the queue depth the coordinator
	//     waits on. A fused global aggregate's drain (fold.go) reports all
	//     but the queue depth: it queues partial states, not batches.
	// Nil disables metering; it never affects results or cost.Counters.
	Metrics *obs.Registry
	// Encodings holds compressed columnar encodings of the tables. Only
	// the benchmark harness under bench/ sets it, to report their size;
	// no plan or scan reads it.
	Encodings *colstore.Set
}

// NewContext builds a Context with the default cost model, constructing
// all catalog-declared indexes.
func NewContext(db *storage.Database) (*Context, error) {
	ixs, err := index.BuildAll(db)
	if err != nil {
		return nil, err
	}
	return &Context{DB: db, Indexes: ixs, Model: cost.Default}, nil
}

// Result is a fully materialized operator output.
type Result struct {
	Schema expr.RelSchema
	Rows   []value.Row
}

// Node is a physical plan operator.
type Node interface {
	// Schema returns the output schema without executing.
	Schema(ctx *Context) (expr.RelSchema, error)
	// Stream returns a fresh streaming iterator over the operator's
	// output; see Operator for the Open/Next/Close contract. Each call
	// returns an independent, unopened instance.
	Stream() Operator
	// Describe renders a one-line description for plan printing.
	Describe() string
}

// Run is the drain: it opens a plan root's stream, pulls it dry, closes
// it, and charges one output tuple per result row — the cost model's rule
// for the rows a plan returns, applied here and nowhere else. It returns
// the result with the counters and their simulated time. On error the
// counters hold whatever work was charged before it.
func Run(ctx *Context, root Node) (*Result, cost.Counters, float64, error) {
	var counters cost.Counters
	schema, err := root.Schema(ctx)
	if err != nil {
		return nil, counters, 0, err
	}
	rows, err := drain(ctx, root, &counters)
	if err != nil {
		return nil, counters, 0, err
	}
	counters.Output += int64(len(rows))
	return &Result{Schema: schema, Rows: rows}, counters, ctx.Model.Time(counters), nil
}

// drain opens root's stream, pulls it dry and closes it before returning,
// so work an operator charges at Close (an Exchange's barrier merge) is
// in the counters. It is the one place the engine boxes rows: the rows of
// one batch share one backing array of values.
func drain(ctx *Context, root Node, counters *cost.Counters) ([]value.Row, error) {
	op := root.Stream()
	defer op.Close()
	if err := op.Open(ctx, counters); err != nil {
		return nil, err
	}
	var rows []value.Row
	for {
		b, err := op.Next()
		if err != nil || b == nil {
			return rows, err
		}
		w := len(b.cols)
		vals := make([]value.Value, b.Len()*w)
		for r := range b.Len() {
			for c := range b.cols {
				vals[r*w+c] = b.cols[c].At(r)
			}
			rows = append(rows, vals[r*w:(r+1)*w:(r+1)*w])
		}
	}
}

// Explain renders a plan tree as an indented multi-line string.
func Explain(root Node) string {
	var b []byte
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		for i := 0; i < depth; i++ {
			b = append(b, ' ', ' ')
		}
		b = append(b, n.Describe()...)
		b = append(b, '\n')
		for _, child := range Children(n) {
			walk(child, depth+1)
		}
	}
	walk(root, 0)
	return string(b)
}

// Children returns a plan node's inputs, in Explain order; leaves have none.
func Children(n Node) []Node {
	switch t := n.(type) {
	case *Filter:
		return []Node{t.Input}
	case *Project:
		return []Node{t.Input}
	case *Aggregate:
		return []Node{t.Input}
	case *Sort:
		return []Node{t.Input}
	case *Limit:
		return []Node{t.Input}
	case *Exchange:
		return []Node{t.Source}
	case *HashJoin:
		return []Node{t.Build, t.Probe}
	case *MergeJoin:
		return []Node{t.Left, t.Right}
	case *INLJoin:
		return []Node{t.Outer}
	case *StarSemiJoin:
		out := make([]Node, 0, len(t.Dims))
		for _, d := range t.Dims {
			out = append(out, d.Scan)
		}
		return out
	case *Instrumented:
		out := make([]Node, 0, len(t.Kids))
		for _, k := range t.Kids {
			out = append(out, k)
		}
		return out
	default:
		return nil
	}
}

// tableAndSchema resolves a table and its qualified scan schema.
func tableAndSchema(ctx *Context, name string) (*storage.Table, expr.RelSchema, error) {
	t, ok := ctx.DB.Table(name)
	if !ok {
		return nil, expr.RelSchema{}, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, expr.SchemaForTable(t.Schema()), nil
}
