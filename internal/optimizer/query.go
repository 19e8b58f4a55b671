// Package optimizer implements a cost-based query optimizer for
// select-project-join queries over foreign-key joins, the optimizer
// architecture the paper's estimation procedure plugs into.
//
// Plan enumeration (access-path selection, dynamic programming over join
// orders, a semijoin-based star strategy) and cost estimation are entirely
// conventional; every data-dependent quantity flows through a single
// core.Estimator, so swapping the robust sampling-based estimator for the
// histogram baseline changes nothing but the cardinality answers — the
// paper's "changes are isolated within the cardinality estimation module"
// claim (Section 3.1.1).
package optimizer

import (
	"fmt"
	"math/bits"

	"robustqo/internal/catalog"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
)

// Query is a logical SPJ query: the named tables joined along their
// foreign keys, filtered by Pred, optionally grouped/aggregated, ordered,
// limited, and projected. Evaluation order follows SQL: joins and Pred,
// then GroupBy/Aggs, then OrderBy, then Limit, then Project (so OrderBy
// may reference columns the projection drops).
type Query struct {
	Tables  []string
	Pred    expr.Expr // conjunction of non-join predicates; may be nil
	GroupBy []expr.ColumnRef
	Aggs    []engine.AggSpec
	OrderBy []engine.SortKey
	Limit   int // 0 means no limit, unless LimitZero
	// LimitZero marks a LIMIT 0, which returns no rows. It is its own
	// field so that Limit's zero value keeps meaning no limit.
	LimitZero bool
	Project   []expr.ColumnRef // ignored when Aggs is non-empty
}

// Limited reports whether the query carries a LIMIT: Limit rows, or
// none under LimitZero.
func (q *Query) Limited() bool { return q.Limit > 0 || q.LimitZero }

// joinEdge is one foreign-key join between two query tables: child.FKCol
// references parent's primary key.
type joinEdge struct {
	child  int // table index within Query.Tables
	parent int
	fkCol  string // column of child
	pkCol  string // primary key of parent
}

// conjunct is one top-level AND term of the predicate with everything
// the planner derives from the term alone, computed once by analyze. The
// planner names a set of conjuncts by a uint64 mask over
// analysis.conjuncts, so the question it asks the estimator is a table
// mask and a conjunct mask.
type conjunct struct {
	pred expr.Expr
	// tables is the set of query tables the term references. A term
	// without columns (1 = 0) holds for every row or for none, so it gets
	// the FK root's bit: every full plan scans the root, and every
	// estimate over it sees the term.
	tables uint32
	shape  string // fingerprintExpr(pred), the term's ledger shape
	// rng is the term's sargable integer interval on a column of its one
	// table, when isRange: its bound when that is an Int or Date interval,
	// not an exclusion.
	rng     engine.KeyRange
	isRange bool
	// bound is the term's zone-map bound over its one table's schema
	// (expr.PushableBound), when pushable.
	bound    expr.ColBound
	pushable bool
}

// analysis is the prepared form of a query.
type analysis struct {
	q         *Query
	tables    []string
	edges     []joinEdge
	conjuncts []conjunct
}

// analyze validates the query against the catalog and numbers the
// predicate's conjuncts.
func analyze(cat *catalog.Catalog, q *Query) (*analysis, error) {
	if q == nil || len(q.Tables) == 0 {
		return nil, fmt.Errorf("optimizer: query must name at least one table")
	}
	if len(q.Tables) > 16 {
		return nil, fmt.Errorf("optimizer: %d tables exceeds the supported maximum of 16", len(q.Tables))
	}
	terms := flatten(q.Pred)
	if len(terms) > 64 {
		return nil, fmt.Errorf("optimizer: %d conjuncts exceeds the supported maximum of 64", len(terms))
	}
	seen := make(map[string]int, len(q.Tables))
	for i, t := range q.Tables {
		if _, ok := cat.Table(t); !ok {
			return nil, fmt.Errorf("optimizer: unknown table %q", t)
		}
		if _, dup := seen[t]; dup {
			return nil, fmt.Errorf("optimizer: table %q listed twice (self joins are unsupported)", t)
		}
		seen[t] = i
	}
	a := &analysis{q: q, tables: q.Tables}
	for i, t := range q.Tables {
		s, _ := cat.Table(t)
		for _, fk := range s.Foreign {
			j, ok := seen[fk.RefTable]
			if !ok {
				continue
			}
			parent, _ := cat.Table(fk.RefTable)
			a.edges = append(a.edges, joinEdge{child: i, parent: j, fkCol: fk.Column, pkCol: parent.PrimaryKey})
		}
	}
	full := uint32(1<<len(q.Tables)) - 1
	root, err := a.rootOf(full)
	if err != nil {
		return nil, err
	}
	if !a.connected(full) {
		return nil, fmt.Errorf("optimizer: tables %v are not connected by foreign keys", q.Tables)
	}
	schemas := make([]expr.RelSchema, len(q.Tables))
	for _, term := range terms {
		mask, err := a.maskOf(cat, term)
		if err != nil {
			return nil, err
		}
		if mask == 0 {
			mask = 1 << uint(root)
		}
		c := conjunct{pred: term, tables: mask, shape: fingerprintExpr(term)}
		if mask&(mask-1) == 0 {
			i := bits.TrailingZeros32(mask)
			if schemas[i].Fields == nil {
				s, _ := cat.Table(q.Tables[i])
				schemas[i] = expr.SchemaForTable(s)
			}
			c.bound, c.pushable = expr.PushableBound(term, schemas[i])
			if b := c.bound; c.pushable && !b.IsFloat && !b.IsStr && !b.Not {
				c.rng, c.isRange = engine.KeyRange{Column: schemas[i].Fields[b.Col].Column, Lo: b.Lo, Hi: b.Hi}, true
			}
		}
		a.conjuncts = append(a.conjuncts, c)
	}
	return a, nil
}

// flatten returns the AND terms of e, a parenthesized group's included.
func flatten(e expr.Expr) []expr.Expr {
	var out []expr.Expr
	for _, t := range expr.SplitConjuncts(e) {
		if _, ok := t.(expr.And); ok {
			out = append(out, flatten(t)...)
		} else {
			out = append(out, t)
		}
	}
	return out
}

// maskOf computes which query tables a predicate term references.
func (a *analysis) maskOf(cat *catalog.Catalog, term expr.Expr) (uint32, error) {
	var mask uint32
	for _, ref := range expr.Columns(term) {
		idx := -1
		if ref.Table != "" {
			for i, t := range a.tables {
				if t == ref.Table {
					idx = i
					break
				}
			}
			if idx < 0 {
				return 0, fmt.Errorf("optimizer: predicate references table %q not in query", ref.Table)
			}
			s, _ := cat.Table(ref.Table)
			if s.ColumnIndex(ref.Column) < 0 {
				return 0, fmt.Errorf("optimizer: table %q has no column %q", ref.Table, ref.Column)
			}
		} else {
			matches := 0
			for i, t := range a.tables {
				s, _ := cat.Table(t)
				if s.ColumnIndex(ref.Column) >= 0 {
					idx = i
					matches++
				}
			}
			if matches == 0 {
				return 0, fmt.Errorf("optimizer: unknown column %q", ref.Column)
			}
			if matches > 1 {
				return 0, fmt.Errorf("optimizer: ambiguous column %q; qualify it with a table name", ref.Column)
			}
		}
		mask |= 1 << uint(idx)
	}
	return mask, nil
}

// within returns the mask of the conjuncts over tables alone.
func (a *analysis) within(tables uint32) uint64 {
	var cm uint64
	for ci, c := range a.conjuncts {
		if c.tables&^tables == 0 {
			cm |= 1 << uint(ci)
		}
	}
	return cm
}

// pred returns the conjunction of the conjuncts in cm, in conjunct order;
// nil for none.
func (a *analysis) pred(cm uint64) expr.Expr {
	var terms []expr.Expr
	for ; cm != 0; cm &= cm - 1 {
		terms = append(terms, a.conjuncts[bits.TrailingZeros64(cm)].pred)
	}
	return expr.Conj(terms...)
}

// rootOf returns the query table index of the FK root of the masked
// tables: the one no other masked table references.
func (a *analysis) rootOf(tables uint32) (int, error) {
	roots := tables
	for _, e := range a.edges {
		if tables&(1<<uint(e.child)) != 0 {
			roots &^= 1 << uint(e.parent)
		}
	}
	if n := bits.OnesCount32(roots); n != 1 {
		return 0, fmt.Errorf("optimizer: table set %v has %d roots; expected exactly 1 (acyclic foreign-key join)", a.tablesOf(tables), n)
	}
	return bits.TrailingZeros32(roots), nil
}

// tablesOf lists the table names in a mask.
func (a *analysis) tablesOf(mask uint32) []string {
	var out []string
	for i, t := range a.tables {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, t)
		}
	}
	return out
}

// connected reports whether the tables in mask form a connected subgraph
// of the join graph.
func (a *analysis) connected(mask uint32) bool {
	if mask == 0 {
		return false
	}
	start := uint32(mask & -mask) // lowest set bit
	reached := start
	for {
		prev := reached
		for _, e := range a.edges {
			cb := uint32(1) << uint(e.child)
			pb := uint32(1) << uint(e.parent)
			if cb&mask == 0 || pb&mask == 0 {
				continue
			}
			if reached&cb != 0 || reached&pb != 0 {
				reached |= cb | pb
			}
		}
		if reached == prev {
			break
		}
	}
	return reached&mask == mask
}
