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
	b.WriteString(strconv.Itoa(q.Limit))
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
// slot order; Bind and Literals must walk identically. Contains
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
	var idx int
	q.Pred = substLits(t.q.Pred, coerced, &idx)
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

// substLits clones an expression substituting the idx'th literal (in the
// same depth-first order shapeExpr assigns slots) with params[idx].
func substLits(e expr.Expr, params []value.Value, idx *int) expr.Expr {
	switch n := e.(type) {
	case expr.Lit:
		v := params[*idx]
		*idx++
		return expr.Lit{Val: v}
	case expr.Cmp:
		n.L = substLits(n.L, params, idx)
		n.R = substLits(n.R, params, idx)
		return n
	case expr.Between:
		n.E = substLits(n.E, params, idx)
		n.Lo = substLits(n.Lo, params, idx)
		n.Hi = substLits(n.Hi, params, idx)
		return n
	case expr.And:
		terms := make([]expr.Expr, len(n.Terms))
		for i, term := range n.Terms {
			terms[i] = substLits(term, params, idx)
		}
		return expr.And{Terms: terms}
	case expr.Or:
		terms := make([]expr.Expr, len(n.Terms))
		for i, term := range n.Terms {
			terms[i] = substLits(term, params, idx)
		}
		return expr.Or{Terms: terms}
	case expr.Not:
		n.E = substLits(n.E, params, idx)
		return n
	case expr.Arith:
		n.L = substLits(n.L, params, idx)
		n.R = substLits(n.R, params, idx)
		return n
	case expr.Contains:
		// The substring is key material, not a slot, but the operand
		// subtree could in principle carry literals — recurse so the
		// traversal stays in lockstep with shapeExpr's slot order.
		n.E = substLits(n.E, params, idx)
		return n
	case expr.In:
		n.E = substLits(n.E, params, idx)
		return n
	default:
		// Col and unknown kinds carry no slots underneath.
		return e
	}
}

// Literals extracts the predicate literals of a query in slot order —
// the params a fresh normalization of q would produce. It is how the
// serve path turns an ad-hoc query into (template, params) for lookup.
func Literals(pred expr.Expr) []value.Value {
	var out []value.Value
	collectLits(pred, &out)
	return out
}

func collectLits(e expr.Expr, out *[]value.Value) {
	switch n := e.(type) {
	case expr.Lit:
		*out = append(*out, n.Val)
	case expr.Cmp:
		collectLits(n.L, out)
		collectLits(n.R, out)
	case expr.Between:
		collectLits(n.E, out)
		collectLits(n.Lo, out)
		collectLits(n.Hi, out)
	case expr.And:
		for _, term := range n.Terms {
			collectLits(term, out)
		}
	case expr.Or:
		for _, term := range n.Terms {
			collectLits(term, out)
		}
	case expr.Not:
		collectLits(n.E, out)
	case expr.Arith:
		collectLits(n.L, out)
		collectLits(n.R, out)
	case expr.Contains:
		collectLits(n.E, out)
	case expr.In:
		collectLits(n.E, out)
	}
}
