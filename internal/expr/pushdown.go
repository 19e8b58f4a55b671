package expr

import (
	"math"

	"robustqo/internal/catalog"
)

// Scan predicate pushdown: SplitPushdown factors a scan predicate into
// single-column interval bounds plus a residual predicate for the rows
// that satisfy them. storage.Filter, which every sequential scan and
// every synopsis count runs, skips the tiles whose zone maps some bound
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
// evaluation order, results, and error behavior. Pushed terms are comparisons of an
// Int/Date/String column against a same-family literal — value.Compare
// is exact and error-free for those pairs — so pushed evaluation can
// never diverge from row-domain evaluation.

// ColBound is one pushable conjunct reduced to a closed interval over a
// single column, identified by its ordinal in the scan's RelSchema.
// Int/Date bounds use [Lo, Hi]; String bounds use [StrLo, StrHi] with
// each side present only when its Has flag is set. An empty interval
// (Lo > Hi for ints) is valid and selects nothing.
type ColBound struct {
	Col                int
	Lo, Hi             int64
	StrLo, StrHi       string
	HasStrLo, HasStrHi bool
	IsStr              bool
}

// SplitPushdown splits pred into the longest pushable prefix of its
// top-level conjuncts — returned as per-column interval bounds — and the
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
// column of schema with a literal in a way an interval decides exactly:
// the conjuncts SplitPushdown pushes.
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
		if kind == catalog.String {
			if lo.Val.Kind != catalog.String || hi.Val.Kind != catalog.String {
				return ColBound{}, false
			}
			return ColBound{Col: ord, IsStr: true,
				StrLo: lo.Val.S, HasStrLo: true,
				StrHi: hi.Val.S, HasStrHi: true}, true
		}
		if !intish(kind) || !intish(lo.Val.Kind) || !intish(hi.Val.Kind) {
			return ColBound{}, false
		}
		return ColBound{Col: ord, Lo: lo.Val.I, Hi: hi.Val.I}, true
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

func cmpBound(op CmpOp, col Col, lit Lit, schema RelSchema) (ColBound, bool) {
	ord, kind, ok := resolveOrdinal(col, schema)
	if !ok {
		return ColBound{}, false
	}
	if kind == catalog.String {
		if lit.Val.Kind != catalog.String {
			return ColBound{}, false
		}
		s := lit.Val.S
		switch op {
		// Strict string inequalities stay residual: a closed interval
		// would need the predecessor/successor string.
		case EQ:
			return ColBound{Col: ord, IsStr: true, StrLo: s, HasStrLo: true, StrHi: s, HasStrHi: true}, true
		case LE:
			return ColBound{Col: ord, IsStr: true, StrHi: s, HasStrHi: true}, true
		case GE:
			return ColBound{Col: ord, IsStr: true, StrLo: s, HasStrLo: true}, true
		}
		return ColBound{}, false
	}
	if !intish(kind) || !intish(lit.Val.Kind) {
		return ColBound{}, false
	}
	v := lit.Val.I
	b := ColBound{Col: ord, Lo: math.MinInt64, Hi: math.MaxInt64}
	switch op {
	case EQ:
		b.Lo, b.Hi = v, v
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
	default: // NE has no single interval.
		return ColBound{}, false
	}
	return b, true
}
