package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"robustqo/internal/catalog"
	"robustqo/internal/expr"
	"robustqo/internal/value"
)

// Predicate fingerprints key the cardinality feedback ledger
// (internal/obs/ledger): two executions whose estimates should have come
// out the same must land on the same ledger entry, while shapes the
// estimator treats differently must not collide. The fingerprint is
// therefore the normalized table set plus the normalized shape of every
// conjunct applicable to that table set, with literals VALUE-BINNED
// rather than kept verbatim — "l_quantity < 30" and "l_quantity < 25"
// fall in the same magnitude bin and share feedback, while
// "l_quantity < 3000" does not. The grammar (also in DESIGN.md §12):
//
//	fingerprint = tables [ "|" conjunct { ";" conjunct } ]
//	tables      = name { "," name }          (sorted)
//	conjunct    = normalized shape, conjuncts sorted lexicographically
//	literal     = bin tag, not the value:
//	              int/date  b<len>   sign prefix "-", len = bit length of |v|
//	              float     f<exp>   sign prefix "-", exp = binary exponent
//	              string    s<len>   len = bit length of byte length
//
// Binning by bit length / binary exponent makes bins exponentially wide:
// selectivities within a bin differ by at most ~2x on uniform data, which
// is well inside the drift the ledger exists to surface, while the number
// of distinct bins per column stays O(64) so the bounded ledger cannot be
// flooded by a parameter sweep.

// binValue renders a literal's bin tag.
func binValue(v value.Value) string {
	switch v.Kind {
	case catalog.Int, catalog.Date:
		return binInt(v.I)
	case catalog.Float:
		if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
			return "f?"
		}
		if v.F == 0 {
			return "f0"
		}
		tag := fmt.Sprintf("f%d", math.Ilogb(v.F))
		if v.F < 0 {
			return "-" + tag
		}
		return tag
	case catalog.String:
		return fmt.Sprintf("s%d", bits.Len(uint(len(v.S))))
	default:
		return "?"
	}
}

func binInt(v int64) string {
	if v == 0 {
		return "b0"
	}
	if v < 0 {
		return fmt.Sprintf("-b%d", bits.Len64(uint64(-v)))
	}
	return fmt.Sprintf("b%d", bits.Len64(uint64(v)))
}

// fingerprintExpr normalizes one expression subtree to its shape string.
func fingerprintExpr(e expr.Expr) string {
	switch n := e.(type) {
	case expr.Col:
		return n.Ref.String()
	case expr.Lit:
		return binValue(n.Val)
	case expr.Cmp:
		return fingerprintExpr(n.L) + n.Op.String() + fingerprintExpr(n.R)
	case expr.Between:
		return fingerprintExpr(n.E) + " between " + fingerprintExpr(n.Lo) + ".." + fingerprintExpr(n.Hi)
	case expr.And:
		return "(" + joinSortedShapes(n.Terms, "&") + ")"
	case expr.Or:
		return "(" + joinSortedShapes(n.Terms, "+") + ")"
	case expr.Not:
		return "!" + fingerprintExpr(n.E)
	case expr.Arith:
		return "(" + fingerprintExpr(n.L) + n.Op.String() + fingerprintExpr(n.R) + ")"
	case expr.Contains:
		return fingerprintExpr(n.E) + "~s" + fmt.Sprint(bits.Len(uint(len(n.Substr))))
	case expr.In:
		// The membership list is binned by size, not enumerated: IN lists
		// differing only in which keys they name share an entry.
		return fingerprintExpr(n.E) + " in#" + binInt(int64(len(n.Vals)))
	default:
		// Unknown node kinds still get a stable, collision-free tag.
		return fmt.Sprintf("<%T>", e)
	}
}

// joinSortedShapes normalizes commutative connectives: term order in the
// source text must not split ledger entries.
func joinSortedShapes(terms []expr.Expr, sep string) string {
	shapes := make([]string, len(terms))
	for i, t := range terms {
		shapes[i] = fingerprintExpr(t)
	}
	sort.Strings(shapes)
	return strings.Join(shapes, sep)
}

// fingerprint returns the ledger fingerprint of the masked
// subexpression under every conjunct over its tables (within).
func (a *analysis) fingerprint(tables uint32) string {
	names := a.tablesOf(tables)
	sort.Strings(names)
	var shapes []string
	for cm := a.within(tables); cm != 0; cm &= cm - 1 {
		shapes = append(shapes, a.conjuncts[bits.TrailingZeros64(cm)].shape)
	}
	sort.Strings(shapes)
	fp := strings.Join(names, ",")
	if len(shapes) > 0 {
		fp += "|" + strings.Join(shapes, ";")
	}
	return fp
}
