package expr

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"robustqo/internal/catalog"
	"robustqo/internal/value"
)

// The expression compiler. Every expression compiles to one closure tree
// that runs over column vectors and selection vectors: selection vectors
// are strictly increasing row indices into the columns, and predicate
// evaluators return the matching subset as a NEW slice (never aliasing
// their input), which is what lets Or track matched/remaining sets without
// corruption. Boolean connectives short-circuit over the selection: a row
// filtered out by an earlier And term (or accepted by an earlier Or term)
// is never evaluated by later terms, so data-dependent errors (division by
// zero, type mismatches) surface only for rows a term actually sees. Each
// term runs over its selection in row order, and the first error of the
// first failing term is the one returned.
//
// A scalar evaluates to one typed vector indexed by row id, so one kind
// holds for every row: a column is the batch's own vector, a literal one
// vector filled once, and arithmetic one reused vector computed by a
// generic int64 or float64 kernel per operator. Comparisons of a column
// against a literal — the shapes SplitPushdown pushes and the estimator
// counts — compile to kernels that read the typed column in place; every
// other comparison compares its operands' vectors row by row. A Value is
// built only to word an error.

// batchPredFn evaluates a predicate over the rows in sel, returning the
// indices that pass in ascending order.
type batchPredFn func(cols []value.Vec, sel []int) ([]int, error)

// batchScalarFn evaluates a scalar for the rows in sel and returns a
// vector indexed by row id (not by sel position) whose values at the rows
// of sel are the results; its other values are unspecified. The vector
// is a column of cols or the closure's own scratch: callers must not
// modify it, and it is valid until the next call or until cols change.
type batchScalarFn func(cols []value.Vec, sel []int) (*value.Vec, error)

// span returns the row-id space a result vector must cover for sel.
func span(sel []int) int {
	if len(sel) == 0 {
		return 0
	}
	return sel[len(sel)-1] + 1
}

// asFloat returns v's values at the rows of sel as float64s indexed by
// row id: a Float vector's own payload, or an Int or Date vector's
// converted into buf.
func asFloat(v *value.Vec, sel []int, buf *[]float64) []float64 {
	if v.Kind == catalog.Float {
		return v.F
	}
	n := span(sel)
	xs := slices.Grow((*buf)[:0], n)[:n]
	*buf = xs
	for _, r := range sel {
		xs[r] = float64(v.I[r])
	}
	return xs
}

// mergeSorted returns the ascending union of two sorted, disjoint
// selection vectors as a fresh slice.
func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// diffSorted returns the elements of a not present in b (both sorted
// ascending) as a fresh slice.
func diffSorted(a, b []int) []int {
	out := make([]int, 0, len(a))
	j := 0
	for _, r := range a {
		for j < len(b) && b[j] < r {
			j++
		}
		if j < len(b) && b[j] == r {
			continue
		}
		out = append(out, r)
	}
	return out
}

// column returns column idx of cols after checking that it covers every
// row in sel: the bounds errors every column read reports.
func column(cols []value.Vec, idx int, sel []int) (*value.Vec, error) {
	if idx >= len(cols) {
		return nil, fmt.Errorf("expr: batch too narrow for column ordinal %d", idx)
	}
	col := &cols[idx]
	if n, m := len(sel), col.Len(); n > 0 && sel[n-1] >= m {
		return nil, fmt.Errorf("expr: batch too short for row %d", sel[sort.SearchInts(sel, m)])
	}
	return col, nil
}

// holds reports whether a three-way comparison result satisfies op.
func holds(op CmpOp, c int) bool {
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	default:
		return c >= 0
	}
}

// cmpColLit is the Cmp{L: Col, R: Lit} kernel.
type cmpColLit struct {
	col  int
	op   CmpOp
	lit  value.Value
	fbuf []float64 // an Int or Date column's values as float64s
}

//qo:hotpath
func (k *cmpColLit) eval(cols []value.Vec, sel []int) ([]int, error) {
	return k.filter(cols, sel, make([]int, 0, len(sel)))
}

// filter appends the rows of sel that satisfy the comparison to out,
// which may alias sel's storage. It runs one loop per column kind over
// the typed payload, with value.Compare's order: a Float row or literal
// compares as float64 (an Int or Date column converted into fbuf), so a
// NaN is equal to everything, and a String against a number fails at the
// first selected row with Compare's error.
//
//qo:hotpath
func (k *cmpColLit) filter(cols []value.Vec, sel, out []int) ([]int, error) {
	col, err := column(cols, k.col, sel)
	if err != nil {
		return nil, err
	}
	if len(sel) == 0 {
		return out, nil
	}
	lit := k.lit
	switch {
	case (col.Kind == catalog.String) != (lit.Kind == catalog.String):
		_, err := value.Compare(col.At(sel[0]), lit)
		return nil, err
	case col.Kind == catalog.String:
		return selCmp(col.S, lit.S, sel, k.op, out), nil
	case col.Kind == catalog.Float:
		return selCmp(col.F, lit.AsFloat(), sel, k.op, out), nil
	case lit.Kind != catalog.Float:
		return selCmp(col.I, lit.I, sel, k.op, out), nil
	}
	return selCmp(asFloat(col, sel, &k.fbuf), lit.F, sel, k.op, out), nil
}

// selCmp appends the rows r of sel whose xs[r] satisfies op against the
// literal y to out, which may alias sel's storage. It tests with < and >
// alone, so a NaN, neither below nor above y, compares equal, as
// value.Compare has it. Each operator is one branch-free loop: it writes
// every row and advances past it by the row's 0/1 verdict.
//
//qo:hotpath
func selCmp[T int64 | float64 | string](xs []T, y T, sel []int, op CmpOp, out []int) []int {
	n0 := len(out)
	out = slices.Grow(out, len(sel))
	dst, j := out[n0:n0+len(sel)], 0
	switch op {
	case EQ:
		for _, r := range sel {
			x := xs[r]
			dst[j] = r
			j += b2i(!(x < y || x > y))
		}
	case NE:
		for _, r := range sel {
			x := xs[r]
			dst[j] = r
			j += b2i(x < y || x > y)
		}
	case LT:
		for _, r := range sel {
			dst[j] = r
			j += b2i(xs[r] < y)
		}
	case LE:
		for _, r := range sel {
			dst[j] = r
			j += b2i(!(xs[r] > y))
		}
	case GT:
		for _, r := range sel {
			dst[j] = r
			j += b2i(xs[r] > y)
		}
	default:
		for _, r := range sel {
			dst[j] = r
			j += b2i(!(xs[r] < y))
		}
	}
	return out[:n0+j]
}

// selCmpVec appends the rows r of sel where xs[r] satisfies op against
// ys[r] to out, with selCmp's order: a NaN compares equal to everything.
// One branch-free loop serves every operator: it writes every row and
// advances past it by op's verdict on the row's three-way comparison.
//
//qo:hotpath
func selCmpVec[T int64 | float64 | string](xs, ys []T, sel []int, op CmpOp, out []int) []int {
	var pass [3]int // op's 0/1 verdict on each three-way result, plus 1
	for c := -1; c <= 1; c++ {
		pass[c+1] = b2i(holds(op, c))
	}
	n0 := len(out)
	out = slices.Grow(out, len(sel))
	dst, j := out[n0:n0+len(sel)], 0
	for _, r := range sel {
		x, y := xs[r], ys[r]
		dst[j] = r
		j += pass[1+b2i(x > y)-b2i(x < y)]
	}
	return out[:n0+j]
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// betweenColLit is the Between{E: Col, Lo: Lit, Hi: Lit} kernel. Like the
// generic path it compares every selected row against lo first, and only
// the rows that clear lo against hi.
type betweenColLit struct{ lo, hi cmpColLit }

//qo:hotpath
func (k *betweenColLit) eval(cols []value.Vec, sel []int) ([]int, error) {
	pass, err := k.lo.eval(cols, sel)
	if err != nil {
		return nil, err
	}
	return k.hi.filter(cols, pass, pass[:0])
}

func bindPredBatch(e Expr, schema RelSchema) (batchPredFn, error) {
	switch n := e.(type) {
	case Cmp:
		if c, ok := n.L.(Col); ok {
			if lit, ok := n.R.(Lit); ok {
				idx, err := schema.Resolve(c.Ref)
				if err != nil {
					return nil, err
				}
				return (&cmpColLit{col: idx, op: n.Op, lit: lit.Val}).eval, nil
			}
		}
		l, err := bindScalarBatch(n.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := bindScalarBatch(n.R, schema)
		if err != nil {
			return nil, err
		}
		op := n.Op
		var fbuf []float64
		return func(cols []value.Vec, sel []int) ([]int, error) {
			lv, err := l(cols, sel)
			if err != nil {
				return nil, err
			}
			rv, err := r(cols, sel)
			if err != nil {
				return nil, err
			}
			out := make([]int, 0, len(sel))
			if len(sel) == 0 {
				return out, nil
			}
			switch {
			case (lv.Kind == catalog.String) != (rv.Kind == catalog.String):
				_, err := value.Compare(lv.At(sel[0]), rv.At(sel[0]))
				return nil, err
			case lv.Kind == catalog.String:
				return selCmpVec(lv.S, rv.S, sel, op, out), nil
			case lv.Kind != catalog.Float && rv.Kind != catalog.Float:
				return selCmpVec(lv.I, rv.I, sel, op, out), nil
			}
			// At most one side is Int or Date, so one buffer serves.
			return selCmpVec(asFloat(lv, sel, &fbuf), asFloat(rv, sel, &fbuf), sel, op, out), nil
		}, nil
	case Between:
		if c, ok := n.E.(Col); ok {
			lo, okLo := n.Lo.(Lit)
			hi, okHi := n.Hi.(Lit)
			if okLo && okHi {
				idx, err := schema.Resolve(c.Ref)
				if err != nil {
					return nil, err
				}
				return (&betweenColLit{lo: cmpColLit{col: idx, op: GE, lit: lo.Val}, hi: cmpColLit{col: idx, op: LE, lit: hi.Val}}).eval, nil
			}
		}
		// Generically, e BETWEEN lo AND hi is e >= lo AND e <= hi: the And
		// evaluates e and lo over every selected row first, and e and hi
		// only over the rows that clear lo, so it reports the same errors.
		return bindPredBatch(And{Terms: []Expr{Cmp{Op: GE, L: n.E, R: n.Lo}, Cmp{Op: LE, L: n.E, R: n.Hi}}}, schema)
	case And:
		terms, err := bindPredBatchList(n.Terms, schema)
		if err != nil {
			return nil, err
		}
		return func(cols []value.Vec, sel []int) ([]int, error) {
			cur := sel
			for _, t := range terms {
				var err error
				cur, err = t(cols, cur)
				if err != nil {
					return nil, err
				}
				if len(cur) == 0 {
					break
				}
			}
			return cur, nil
		}, nil
	case Or:
		terms, err := bindPredBatchList(n.Terms, schema)
		if err != nil {
			return nil, err
		}
		return func(cols []value.Vec, sel []int) ([]int, error) {
			var matched []int
			remaining := sel
			for _, t := range terms {
				res, err := t(cols, remaining)
				if err != nil {
					return nil, err
				}
				matched = mergeSorted(matched, res)
				remaining = diffSorted(remaining, res)
				if len(remaining) == 0 {
					break
				}
			}
			return matched, nil
		}, nil
	case Not:
		inner, err := bindPredBatch(n.E, schema)
		if err != nil {
			return nil, err
		}
		return func(cols []value.Vec, sel []int) ([]int, error) {
			res, err := inner(cols, sel)
			if err != nil {
				return nil, err
			}
			return diffSorted(sel, res), nil
		}, nil
	case Contains:
		v, err := bindScalarBatch(n.E, schema)
		if err != nil {
			return nil, err
		}
		sub := n.Substr
		return func(cols []value.Vec, sel []int) ([]int, error) {
			vec, err := v(cols, sel)
			if err != nil {
				return nil, err
			}
			out := make([]int, 0, len(sel))
			if len(sel) == 0 {
				return out, nil
			}
			if vec.Kind != catalog.String {
				return nil, fmt.Errorf("expr: CONTAINS over non-string value %s", vec.At(sel[0]))
			}
			for _, row := range sel {
				if strings.Contains(vec.S[row], sub) {
					out = append(out, row)
				}
			}
			return out, nil
		}, nil
	case In:
		if len(n.Vals) == 0 {
			return nil, fmt.Errorf("expr: IN with an empty value list")
		}
		// e IN (v1, v2, ...) is e = v1 OR e = v2 OR ...: the Or tests each
		// candidate, in list order, against the rows no earlier one
		// matched, so a candidate of the wrong kind fails exactly when
		// some selected row reaches it, as a row-at-a-time loop would.
		terms := make([]Expr, len(n.Vals))
		for i, v := range n.Vals {
			terms[i] = Cmp{Op: EQ, L: n.E, R: Lit{Val: v}}
		}
		return bindPredBatch(Or{Terms: terms}, schema)
	case Col, Lit, Arith:
		return nil, fmt.Errorf("expr: %s is not a predicate", e)
	default:
		return nil, fmt.Errorf("expr: unsupported predicate node %T", e)
	}
}

func bindPredBatchList(terms []Expr, schema RelSchema) ([]batchPredFn, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("expr: empty boolean connective")
	}
	out := make([]batchPredFn, len(terms))
	for i, t := range terms {
		f, err := bindPredBatch(t, schema)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

func bindScalarBatch(e Expr, schema RelSchema) (batchScalarFn, error) {
	switch n := e.(type) {
	case Col:
		idx, err := schema.Resolve(n.Ref)
		if err != nil {
			return nil, err
		}
		return func(cols []value.Vec, sel []int) (*value.Vec, error) {
			return column(cols, idx, sel)
		}, nil
	case Lit:
		lit := n.Val
		vec := value.Vec{Kind: lit.Kind}
		return func(cols []value.Vec, sel []int) (*value.Vec, error) {
			for n := span(sel); vec.Len() < n; {
				vec.Append(lit)
			}
			return &vec, nil
		}, nil
	case Arith:
		l, err := bindScalarBatch(n.L, schema)
		if err != nil {
			return nil, err
		}
		r, err := bindScalarBatch(n.R, schema)
		if err != nil {
			return nil, err
		}
		op := n.Op
		var out value.Vec
		var fbuf []float64
		// Integral arithmetic when neither operand is a Float, so date
		// shifting (date + days) stays exact, which Experiment 1's
		// template relies on; the result is a Date when the right
		// operand is one, else of the left operand's kind.
		return func(cols []value.Vec, sel []int) (*value.Vec, error) {
			lv, err := l(cols, sel)
			if err != nil {
				return nil, err
			}
			rv, err := r(cols, sel)
			if err != nil {
				return nil, err
			}
			m := span(sel)
			if m == 0 {
				return &out, nil
			}
			if lv.Kind == catalog.String || rv.Kind == catalog.String {
				return nil, fmt.Errorf("expr: arithmetic over non-numeric values %s %s %s", lv.At(sel[0]), op, rv.At(sel[0]))
			}
			if lv.Kind == catalog.Float || rv.Kind == catalog.Float {
				out.Kind, out.F = catalog.Float, slices.Grow(out.F[:0], m)[:m]
				if !arith(op, asFloat(lv, sel, &fbuf), asFloat(rv, sel, &fbuf), out.F, sel) {
					return nil, fmt.Errorf("expr: division by zero")
				}
				return &out, nil
			}
			out.Kind, out.I = lv.Kind, slices.Grow(out.I[:0], m)[:m]
			if rv.Kind == catalog.Date {
				out.Kind = catalog.Date
			}
			if !arith(op, lv.I, rv.I, out.I, sel) {
				return nil, fmt.Errorf("expr: integer division by zero")
			}
			return &out, nil
		}, nil
	case Cmp, Between, And, Or, Not, Contains, In:
		return nil, fmt.Errorf("expr: predicate %s used as scalar", e)
	default:
		return nil, fmt.Errorf("expr: unsupported scalar node %T", e)
	}
}

// arith writes xs[r] op ys[r] to out[r] for every row r of sel. It
// reports false, having written only the rows before it, at the first
// row whose divisor is zero.
//
//qo:hotpath
func arith[T int64 | float64](op ArithOp, xs, ys, out []T, sel []int) bool {
	switch op {
	case Add:
		for _, r := range sel {
			out[r] = xs[r] + ys[r]
		}
	case Sub:
		for _, r := range sel {
			out[r] = xs[r] - ys[r]
		}
	case Mul:
		for _, r := range sel {
			out[r] = xs[r] * ys[r]
		}
	default:
		for _, r := range sel {
			if ys[r] == 0 {
				return false
			}
			out[r] = xs[r] / ys[r]
		}
	}
	return true
}
