package core

import (
	"fmt"
	"slices"

	"robustqo/internal/catalog"
	"robustqo/internal/expr"
	"robustqo/internal/histogram"
)

// fallback answers a request no synopsis covers: Section 3.5's
// "subexpressions lacking samples". Each query table's own conjuncts are
// condensed from the sample rooted at that table, by the same posterior
// and rule as a covered request, and the per-table selectivities multiply
// under independence across tables and containment along the foreign
// keys. A conjunct no single sampled table owns contributes its System-R
// magic constant. Only the cross-table combination reintroduces the
// independence assumption, with the compounding error the paper warns
// about; every per-table estimate still responds to the threshold.
//
// A root with no sample at all takes the magic constant for the whole
// expression, with no population to scale it by (Rows 0).
func (e *BayesEstimator) fallback(req Request) (Estimate, error) {
	cat := e.Synopses.Catalog()
	root, err := cat.RootOf(req.Tables)
	if err != nil {
		return Estimate{}, err
	}
	rootSample, ok := e.Synopses.Synopsis(root)
	if !ok {
		return Estimate{Selectivity: histogram.MagicOther, Fallback: "magic"}, nil
	}
	// Attribute each top-level conjunct to the single query table owning
	// all its columns.
	perTable := make(map[string][]expr.Expr)
	sel := 1.0
	for _, term := range expr.SplitConjuncts(req.Pred) {
		owner, ok := ownerOf(cat, req.Tables, term)
		if !ok {
			sel *= magicFor(term)
			continue
		}
		perTable[owner] = append(perTable[owner], term)
	}
	for _, table := range req.Tables {
		terms := perTable[table]
		if len(terms) == 0 {
			continue
		}
		syn, ok := e.Synopses.Synopsis(table)
		if !ok {
			for _, term := range terms {
				sel *= magicFor(term)
			}
			continue
		}
		k, err := syn.Count(expr.Conj(terms...))
		if err != nil {
			return Estimate{}, fmt.Errorf("core: table %q sample: %v", table, err)
		}
		s, err := e.condense(k, syn.Size(), 0)
		if err != nil {
			return Estimate{}, err
		}
		sel *= s
	}
	sel = min(sel, 1)
	return Estimate{Selectivity: sel, Rows: sel * float64(rootSample.N), Fallback: "independent"}, nil
}

// ownerOf finds the unique query table owning every column of the term.
func ownerOf(cat *catalog.Catalog, tables []string, term expr.Expr) (string, bool) {
	owner := ""
	for _, ref := range expr.Columns(term) {
		var t string
		if ref.Table != "" {
			if !slices.Contains(tables, ref.Table) {
				return "", false
			}
			s, ok := cat.Table(ref.Table)
			if !ok || s.ColumnIndex(ref.Column) < 0 {
				return "", false
			}
			t = ref.Table
		} else {
			matches := 0
			for _, qt := range tables {
				s, ok := cat.Table(qt)
				if ok && s.ColumnIndex(ref.Column) >= 0 {
					t = qt
					matches++
				}
			}
			if matches != 1 {
				return "", false
			}
		}
		if owner == "" {
			owner = t
		} else if owner != t {
			return "", false
		}
	}
	return owner, owner != ""
}

// magicFor picks the System-R magic constant matching a predicate shape.
func magicFor(term expr.Expr) float64 {
	switch n := term.(type) {
	case expr.Cmp:
		if n.Op == expr.EQ {
			return histogram.MagicEq
		}
		return histogram.MagicRange
	case expr.Between:
		return histogram.MagicRange
	default:
		return histogram.MagicOther
	}
}
