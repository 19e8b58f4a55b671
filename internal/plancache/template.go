// Package plancache memoizes optimized plans, extending the memoization
// pattern of core.QuantileCache up the whole optimize stack: where the
// quantile cache spares repeated Beta inversions, the plan cache spares
// repeated plan enumerations.
//
// A template is a query with its predicate literals abstracted to
// parameter slots (the prepared-statement view). The cache key is the
// template shape × its binding (the literal values) × the estimator
// identity (which embeds the confidence threshold T) × the requested
// DOP × the partition layout — everything that can change what Optimize
// would return. A lookup either hits an entry built for exactly this
// binding or misses and optimizes cold, so every served plan is the plan
// a cold optimization builds for its own literals (DESIGN.md §13).
package plancache

import (
	"fmt"
	"strconv"
	"strings"

	"robustqo/internal/catalog"
	"robustqo/internal/expr"
	"robustqo/internal/optimizer"
	"robustqo/internal/value"
)

// Template is a normalized query shape with its literals lifted out as
// positional parameters. Two queries normalize to the same Key exactly
// when they differ only in predicate literal values — the same
// table|conjunct grammar as the ledger fingerprint (optimizer
// fingerprints, DESIGN.md §12), but with slots where the fingerprint
// bins values.
type Template struct {
	// Key is the normalized shape: tables, slotted predicate, and the
	// non-parameterized clauses (grouping, aggregates, order, limit,
	// projection) verbatim.
	Key string
	// Params holds the literal values of this normalization, in slot
	// (depth-first predicate traversal) order.
	Params []value.Value
	// Kinds holds each slot's value kind; a binding must match kinds
	// slot-for-slot or it is a different template.
	Kinds []catalog.Type

	q *optimizer.Query
}

// Normalize abstracts the query's predicate literals into parameter
// slots and returns the resulting template. The query itself is not
// modified and is retained (not copied) as the binding source for Bind.
func Normalize(q *optimizer.Query) *Template {
	t := &Template{q: q}
	var b strings.Builder
	b.Grow(128)
	for i, name := range q.Tables {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
	}
	b.WriteByte('|')
	for ci, term := range expr.SplitConjuncts(q.Pred) {
		if ci > 0 {
			b.WriteByte(';')
		}
		shapeExpr(&b, term, t)
	}
	b.WriteByte('|')
	for i, g := range q.GroupBy {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(g.String())
	}
	b.WriteByte('|')
	for i, a := range q.Aggs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Func.String())
		b.WriteByte('(')
		if a.Arg != nil {
			// Aggregate arguments stay verbatim in the key: they are
			// scalar outputs, not predicates, so Bind never substitutes
			// into them.
			b.WriteString(a.Arg.String())
		}
		b.WriteByte(')')
		b.WriteString(a.As)
	}
	b.WriteByte('|')
	for i, k := range q.OrderBy {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k.String())
	}
	b.WriteByte('|')
	if q.Limited() {
		// A LIMIT 0 keys apart from no LIMIT, which writes nothing.
		b.WriteString(strconv.Itoa(q.Limit))
	}
	b.WriteByte('|')
	for i, p := range q.Project {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.String())
	}
	t.Key = b.String()
	return t
}

// kindTag renders a value kind's one-byte slot tag.
func kindTag(k catalog.Type) byte {
	switch k {
	case catalog.Int:
		return 'i'
	case catalog.Float:
		return 'f'
	case catalog.String:
		return 's'
	case catalog.Date:
		return 'd'
	default:
		return '?'
	}
}

// shapeExpr renders the slotted shape of one predicate subtree, lifting
// every literal into a parameter slot. The traversal order here defines
// slot order; walkLits must visit literals identically. Contains
// substrings and IN lists stay verbatim in the key rather than in slots,
// so Bind cannot substitute them.
func shapeExpr(b *strings.Builder, e expr.Expr, t *Template) {
	switch n := e.(type) {
	case expr.Col:
		b.WriteString(n.Ref.String())
	case expr.Lit:
		b.WriteByte('?')
		b.WriteByte(kindTag(n.Val.Kind))
		t.Params = append(t.Params, n.Val)
		t.Kinds = append(t.Kinds, n.Val.Kind)
	case expr.Cmp:
		b.WriteByte('(')
		shapeExpr(b, n.L, t)
		b.WriteString(n.Op.String())
		shapeExpr(b, n.R, t)
		b.WriteByte(')')
	case expr.Between:
		b.WriteByte('(')
		shapeExpr(b, n.E, t)
		b.WriteString(" between ")
		shapeExpr(b, n.Lo, t)
		b.WriteString("..")
		shapeExpr(b, n.Hi, t)
		b.WriteByte(')')
	case expr.And:
		b.WriteByte('(')
		for i, term := range n.Terms {
			if i > 0 {
				b.WriteByte('&')
			}
			shapeExpr(b, term, t)
		}
		b.WriteByte(')')
	case expr.Or:
		b.WriteByte('(')
		for i, term := range n.Terms {
			if i > 0 {
				b.WriteByte('+')
			}
			shapeExpr(b, term, t)
		}
		b.WriteByte(')')
	case expr.Not:
		b.WriteByte('!')
		shapeExpr(b, n.E, t)
	case expr.Arith:
		b.WriteByte('(')
		shapeExpr(b, n.L, t)
		b.WriteString(n.Op.String())
		shapeExpr(b, n.R, t)
		b.WriteByte(')')
	case expr.Contains:
		shapeExpr(b, n.E, t)
		b.WriteString("~")
		b.WriteString(strconv.Quote(n.Substr))
	case expr.In:
		shapeExpr(b, n.E, t)
		b.WriteString(" in(")
		for i, v := range n.Vals {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(v.String())
		}
		b.WriteByte(')')
	default:
		// Unknown node kinds get a type-distinct tag so they can never
		// collide with a known shape.
		b.WriteString("<?")
		b.WriteString(strconv.Quote(e.String()))
		b.WriteByte('>')
	}
}

// Bind returns a copy of the template's query with the predicate
// literals replaced by params, positionally. The template's own query
// and predicate are never mutated.
func (t *Template) Bind(params []value.Value) (*optimizer.Query, error) {
	if len(params) != len(t.Params) {
		return nil, fmt.Errorf("plancache: template has %d parameters, got %d", len(t.Params), len(params))
	}
	for i, p := range params {
		if !kindsCompatible(t.Kinds[i], p.Kind) {
			return nil, fmt.Errorf("plancache: parameter %d: want %v, got %v", i, t.Kinds[i], p.Kind)
		}
	}
	// Coerce interchangeable int/date payloads to the slot's declared
	// kind so a bound query re-normalizes to the same template key.
	coerced := make([]value.Value, len(params))
	for i, p := range params {
		if p.Kind != t.Kinds[i] {
			p = value.Value{Kind: t.Kinds[i], I: p.I}
		}
		coerced[i] = p
	}
	q := *t.q
	next := 0
	q.Pred = walkLits(t.q.Pred, func(value.Value) value.Value {
		v := coerced[next]
		next++
		return v
	})
	return &q, nil
}

// kindsCompatible mirrors storage's Append rule: Int and Date share an
// int64 payload and are interchangeable as parameter bindings.
func kindsCompatible(want, got catalog.Type) bool {
	if want == got {
		return true
	}
	ints := func(k catalog.Type) bool { return k == catalog.Int || k == catalog.Date }
	return ints(want) && ints(got)
}

// Literals extracts the predicate literals of a query in slot order —
// the params a fresh normalization of q would produce. It is how the
// serve path turns an ad-hoc query into (template, params) for lookup.
func Literals(pred expr.Expr) []value.Value {
	var out []value.Value
	walkLits(pred, func(v value.Value) value.Value {
		out = append(out, v)
		return v
	})
	return out
}

// walkLits returns a copy of e with every literal replaced by lit(its
// value), calling lit in slot order — the depth-first order shapeExpr
// assigns slots — so Bind and Literals share one traversal. Contains
// substrings and IN lists are key material, not slots; their operand
// subtrees are still walked.
func walkLits(e expr.Expr, lit func(value.Value) value.Value) expr.Expr {
	switch n := e.(type) {
	case expr.Lit:
		return expr.Lit{Val: lit(n.Val)}
	case expr.Cmp:
		n.L = walkLits(n.L, lit)
		n.R = walkLits(n.R, lit)
		return n
	case expr.Between:
		n.E = walkLits(n.E, lit)
		n.Lo = walkLits(n.Lo, lit)
		n.Hi = walkLits(n.Hi, lit)
		return n
	case expr.And:
		return expr.And{Terms: walkTerms(n.Terms, lit)}
	case expr.Or:
		return expr.Or{Terms: walkTerms(n.Terms, lit)}
	case expr.Not:
		n.E = walkLits(n.E, lit)
		return n
	case expr.Arith:
		n.L = walkLits(n.L, lit)
		n.R = walkLits(n.R, lit)
		return n
	case expr.Contains:
		n.E = walkLits(n.E, lit)
		return n
	case expr.In:
		n.E = walkLits(n.E, lit)
		return n
	default:
		// Col and unknown kinds carry no slots underneath.
		return e
	}
}

func walkTerms(terms []expr.Expr, lit func(value.Value) value.Value) []expr.Expr {
	out := make([]expr.Expr, len(terms))
	for i, term := range terms {
		out[i] = walkLits(term, lit)
	}
	return out
}
