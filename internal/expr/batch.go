package expr

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"robustqo/internal/catalog"
	"robustqo/internal/value"
)

// The predicate compiler. Every expression compiles to one closure tree
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
// Comparisons of a column against a literal — the shapes SplitPushdown
// pushes and the estimator counts — compile to kernels that read the
// typed columns in place instead of filling full-width scratch vectors;
// every other shape, a column against a column included, takes the
// generic path, which loads a column's cells into value.Values. Both
// report the same errors.

// batchPredFn evaluates a predicate over the rows in sel, returning the
// indices that pass in ascending order.
type batchPredFn func(cols []value.Vec, sel []int) ([]int, error)

// batchScalarFn evaluates a scalar for the rows in sel, writing each
// result at out[row] (out is indexed by row id, not by sel position).
type batchScalarFn func(cols []value.Vec, sel []int, out []value.Value) error

// growVec returns a scratch vector with length n, reusing buf's storage
// when possible.
func growVec(buf []value.Value, n int) []value.Value {
	if cap(buf) < n {
		return make([]value.Value, n)
	}
	return buf[:n]
}

// scratchLen returns the row-id space a scratch vector must cover for the
// given columns and selection.
func scratchLen(cols []value.Vec, sel []int) int {
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	if len(sel) > 0 && sel[len(sel)-1]+1 > n {
		n = sel[len(sel)-1] + 1
	}
	return n
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
	col int
	op  CmpOp
	lit value.Value
}

//qo:hotpath
func (k *cmpColLit) eval(cols []value.Vec, sel []int) ([]int, error) {
	return k.filter(cols, sel, make([]int, 0, len(sel)))
}

// filter appends the rows of sel that satisfy the comparison to out,
// which may alias sel's storage. It runs one loop per column kind over
// the typed payload, with value.Compare's order: a Float row or literal
// compares as float64, so a NaN is equal to everything, and a String
// against a number fails at the first selected row with Compare's error.
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
	// An Int or Date column against a Float literal compares as float64.
	for _, row := range sel {
		if c, _ := value.Compare(col.At(row), lit); holds(k.op, c) {
			out = append(out, row)
		}
	}
	return out, nil
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
		var lbuf, rbuf []value.Value
		return func(cols []value.Vec, sel []int) ([]int, error) {
			m := scratchLen(cols, sel)
			lbuf, rbuf = growVec(lbuf, m), growVec(rbuf, m)
			if err := l(cols, sel, lbuf); err != nil {
				return nil, err
			}
			if err := r(cols, sel, rbuf); err != nil {
				return nil, err
			}
			out := make([]int, 0, len(sel))
			for _, row := range sel {
				c, err := value.Compare(lbuf[row], rbuf[row])
				if err != nil {
					return nil, err
				}
				if holds(op, c) {
					out = append(out, row)
				}
			}
			return out, nil
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
				return (&betweenColLit{lo: cmpColLit{idx, GE, lo.Val}, hi: cmpColLit{idx, LE, hi.Val}}).eval, nil
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
		var vbuf []value.Value
		return func(cols []value.Vec, sel []int) ([]int, error) {
			vbuf = growVec(vbuf, scratchLen(cols, sel))
			if err := v(cols, sel, vbuf); err != nil {
				return nil, err
			}
			out := make([]int, 0, len(sel))
			for _, row := range sel {
				if vbuf[row].Kind != catalog.String {
					return nil, fmt.Errorf("expr: CONTAINS over non-string value %s", vbuf[row])
				}
				if strings.Contains(vbuf[row].S, sub) {
					out = append(out, row)
				}
			}
			return out, nil
		}, nil
	case In:
		if len(n.Vals) == 0 {
			return nil, fmt.Errorf("expr: IN with an empty value list")
		}
		v, err := bindScalarBatch(n.E, schema)
		if err != nil {
			return nil, err
		}
		vals := n.Vals
		var vbuf []value.Value
		return func(cols []value.Vec, sel []int) ([]int, error) {
			vbuf = growVec(vbuf, scratchLen(cols, sel))
			if err := v(cols, sel, vbuf); err != nil {
				return nil, err
			}
			out := make([]int, 0, len(sel))
			for _, row := range sel {
				for _, candidate := range vals {
					c, err := value.Compare(vbuf[row], candidate)
					if err != nil {
						return nil, err
					}
					if c == 0 {
						out = append(out, row)
						break
					}
				}
			}
			return out, nil
		}, nil
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
		return func(cols []value.Vec, sel []int, out []value.Value) error {
			col, err := column(cols, idx, sel)
			if err != nil {
				return err
			}
			switch col.Kind {
			case catalog.Float:
				for _, row := range sel {
					out[row] = value.Float(col.F[row])
				}
			case catalog.String:
				for _, row := range sel {
					out[row] = value.Str(col.S[row])
				}
			default:
				for _, row := range sel {
					out[row] = value.Value{Kind: col.Kind, I: col.I[row]}
				}
			}
			return nil
		}, nil
	case Lit:
		v := n.Val
		return func(cols []value.Vec, sel []int, out []value.Value) error {
			for _, row := range sel {
				out[row] = v
			}
			return nil
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
		var lbuf, rbuf []value.Value
		return func(cols []value.Vec, sel []int, out []value.Value) error {
			m := scratchLen(cols, sel)
			lbuf, rbuf = growVec(lbuf, m), growVec(rbuf, m)
			if err := l(cols, sel, lbuf); err != nil {
				return err
			}
			if err := r(cols, sel, rbuf); err != nil {
				return err
			}
			for _, row := range sel {
				v, err := applyArith(op, lbuf[row], rbuf[row])
				if err != nil {
					return err
				}
				out[row] = v
			}
			return nil
		}, nil
	case Cmp, Between, And, Or, Not, Contains, In:
		return nil, fmt.Errorf("expr: predicate %s used as scalar", e)
	default:
		return nil, fmt.Errorf("expr: unsupported scalar node %T", e)
	}
}
