package expr

import (
	"math"

	"robustqo/internal/catalog"
	"robustqo/internal/value"
)

// Scan predicate pushdown: SplitPushdown factors a scan predicate into
// single-column bounds plus a residual predicate for the rows that
// satisfy them. storage.Filter, which every sequential scan and every
// synopsis count runs, skips the tiles whose zone maps some bound
// excludes, checks the bounds on the other tiles' typed column payloads
// in place, and evaluates the residual only on their survivors. The
// optimizer reads the same bounds (PushableBound, per conjunct) for the
// zone-map arithmetic and selectivity ceilings it plans with.
//
// The factoring is prefix-only and exact. Only the longest pushable
// PREFIX of the top-level AND conjuncts is extracted: the evaluator runs
// conjuncts left to right, each over the rows earlier ones kept, so
// running the residual (the remaining conjuncts, in order) on exactly the
// rows where the pushed prefix holds reproduces the unsplit filter's
// evaluation order, results, and error behavior. A pushed term compares
// one column with one literal, and value.Compare is error-free for the
// pairs pushed, so a bound decides exactly what the comparison would:
//
//   - an Int or Date column against an Int or Date literal, under =, <,
//     <=, >, >=, <> or BETWEEN: an int64 interval, strict sides moved
//     one step in, <> its complement;
//   - a String column against a String literal, under =, <=, >=, <> or
//     BETWEEN (a strict side would need the neighbouring string);
//   - a Float column against any numeric literal but NaN, under every
//     operator: value.Compare converts the literal with AsFloat, and so
//     does the bound, whose strict sides move one float step in
//     (math.Nextafter). Compare puts a NaN row level with every number,
//     so the bound records whether NaN passes (=, <=, >=, BETWEEN) or
//     not (<, >, <>).
//
// A Float literal against an Int or Date column stays residual: Compare
// would go through float conversion of every row, which an int64
// interval does not reproduce.

// ColBound is one pushable conjunct reduced to a closed interval over a
// single column, identified by its ordinal in the scan's RelSchema, in
// the payload of the column's kind: [Lo, Hi] for Int and Date, [FLo, FHi]
// for Float (IsFloat), [StrLo, StrHi] for String (IsStr), each string side
// present only when its Has flag is set. With Not set the bound is an
// exclusion: a row passes when its value lies outside the interval — the
// one point of a <> conjunct. NaN says whether a NaN row passes a Float
// bound, whichever of the two kinds it is. An empty interval (Lo > Hi,
// FLo > FHi, StrLo > StrHi) is valid: no value lies in it, so only a NaN
// the NaN flag admits passes it, and every value passes its exclusion.
type ColBound struct {
	Col                int
	Lo, Hi             int64
	FLo, FHi           float64
	StrLo, StrHi       string
	HasStrLo, HasStrHi bool
	IsStr, IsFloat     bool
	Not, NaN           bool
}

// SplitPushdown splits pred into the longest pushable prefix of its
// top-level conjuncts — returned as per-column bounds — and the
// residual predicate covering the remaining conjuncts. A nil predicate
// yields (nil, nil); a predicate with no pushable prefix yields
// (nil, pred).
func SplitPushdown(pred Expr, schema RelSchema) ([]ColBound, Expr) {
	conjs := SplitConjuncts(pred)
	var bounds []ColBound
	i := 0
	for ; i < len(conjs); i++ {
		b, ok := PushableBound(conjs[i], schema)
		if !ok {
			break
		}
		bounds = append(bounds, b)
	}
	if i == 0 {
		return nil, pred
	}
	return bounds, Conj(conjs[i:]...)
}

// PushableBound reduces one conjunct to a ColBound when it compares one
// column of schema with a literal in a way an interval or its exclusion
// decides exactly: the conjuncts SplitPushdown pushes.
func PushableBound(e Expr, schema RelSchema) (ColBound, bool) {
	switch t := e.(type) {
	case Cmp:
		if col, lit, ok := colAndLit(t.L, t.R); ok {
			return cmpBound(t.Op, col, lit, schema)
		}
		if col, lit, ok := colAndLit(t.R, t.L); ok {
			return cmpBound(flipCmp(t.Op), col, lit, schema)
		}
	case Between:
		col, ok := t.E.(Col)
		if !ok {
			return ColBound{}, false
		}
		lo, okLo := t.Lo.(Lit)
		hi, okHi := t.Hi.(Lit)
		if !okLo || !okHi {
			return ColBound{}, false
		}
		ord, kind, ok := resolveOrdinal(col, schema)
		if !ok {
			return ColBound{}, false
		}
		switch {
		case kind == catalog.String:
			if lo.Val.Kind != catalog.String || hi.Val.Kind != catalog.String {
				return ColBound{}, false
			}
			return ColBound{Col: ord, IsStr: true,
				StrLo: lo.Val.S, HasStrLo: true,
				StrHi: hi.Val.S, HasStrHi: true}, true
		case kind == catalog.Float:
			if !floatLit(lo.Val) || !floatLit(hi.Val) {
				return ColBound{}, false
			}
			return ColBound{Col: ord, IsFloat: true, FLo: lo.Val.AsFloat(), FHi: hi.Val.AsFloat(), NaN: true}, true
		case intish(kind) && intish(lo.Val.Kind) && intish(hi.Val.Kind):
			return ColBound{Col: ord, Lo: lo.Val.I, Hi: hi.Val.I}, true
		}
	}
	return ColBound{}, false
}

func colAndLit(a, b Expr) (Col, Lit, bool) {
	col, okC := a.(Col)
	lit, okL := b.(Lit)
	return col, lit, okC && okL
}

// flipCmp mirrors an operator for the literal-op-column orientation.
func flipCmp(op CmpOp) CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	}
	return op
}

func resolveOrdinal(col Col, schema RelSchema) (int, catalog.Type, bool) {
	ord, n := schema.find(col.Ref)
	if n != 1 {
		return 0, 0, false
	}
	return ord, schema.Fields[ord].Type, true
}

// intish reports whether a column or literal kind is Int or Date. An
// integer interval is exact only when both the column and the literal
// are: a Float on either side makes value.Compare go through float
// conversion, which the interval could not reproduce.
func intish(k catalog.Type) bool { return k == catalog.Int || k == catalog.Date }

// floatLit reports whether a literal can bound a Float column: any number
// but NaN, against which value.Compare finds every row equal.
func floatLit(v value.Value) bool {
	f := v.AsFloat()
	return v.Numeric() && f == f
}

func cmpBound(op CmpOp, col Col, lit Lit, schema RelSchema) (ColBound, bool) {
	ord, kind, ok := resolveOrdinal(col, schema)
	if !ok {
		return ColBound{}, false
	}
	switch {
	case kind == catalog.String:
		if lit.Val.Kind != catalog.String {
			return ColBound{}, false
		}
		s := lit.Val.S
		b := ColBound{Col: ord, IsStr: true}
		switch op {
		// Strict string inequalities stay residual: a closed interval
		// would need the predecessor/successor string.
		case EQ, NE:
			b.StrLo, b.HasStrLo, b.StrHi, b.HasStrHi, b.Not = s, true, s, true, op == NE
		case LE:
			b.StrHi, b.HasStrHi = s, true
		case GE:
			b.StrLo, b.HasStrLo = s, true
		default:
			return ColBound{}, false
		}
		return b, true
	case kind == catalog.Float:
		if !floatLit(lit.Val) {
			return ColBound{}, false
		}
		return floatBound(op, ord, lit.Val.AsFloat()), true
	case intish(kind) && intish(lit.Val.Kind):
		return intBound(op, ord, lit.Val.I), true
	}
	return ColBound{}, false
}

// intBound is column ord op v over int64 payloads.
func intBound(op CmpOp, ord int, v int64) ColBound {
	b := ColBound{Col: ord, Lo: math.MinInt64, Hi: math.MaxInt64}
	switch op {
	case EQ, NE:
		b.Lo, b.Hi, b.Not = v, v, op == NE
	case LT:
		// Saturating endpoints: x < MinInt64 is unsatisfiable, which the
		// empty interval (Lo > Hi) encodes.
		if v == math.MinInt64 {
			b.Lo, b.Hi = 1, 0
		} else {
			b.Hi = v - 1
		}
	case LE:
		b.Hi = v
	case GT:
		if v == math.MaxInt64 {
			b.Lo, b.Hi = 1, 0
		} else {
			b.Lo = v + 1
		}
	case GE:
		b.Lo = v
	}
	return b
}

// floatBound is column ord op v over float64 payloads, v not NaN. A
// strict side moves to the next float inward, so x < v is x <= the
// largest float below v; past an infinity it saturates to the empty
// interval as intBound does. NaN passes exactly the operators that
// hold when value.Compare returns 0.
func floatBound(op CmpOp, ord int, v float64) ColBound {
	b := ColBound{Col: ord, IsFloat: true, FLo: math.Inf(-1), FHi: math.Inf(1)}
	switch op {
	case EQ, NE:
		b.FLo, b.FHi, b.Not = v, v, op == NE
	case LT:
		if math.IsInf(v, -1) {
			b.FLo, b.FHi = 1, 0
		} else {
			b.FHi = math.Nextafter(v, math.Inf(-1))
		}
	case LE:
		b.FHi = v
	case GT:
		if math.IsInf(v, 1) {
			b.FLo, b.FHi = 1, 0
		} else {
			b.FLo = math.Nextafter(v, math.Inf(1))
		}
	case GE:
		b.FLo = v
	}
	b.NaN = op == EQ || op == LE || op == GE
	return b
}
