package core

import (
	"fmt"
	"math"
	"strings"

	"robustqo/internal/expr"
	"robustqo/internal/sample"
)

// EstimateDistinct estimates the number of distinct values in a population
// of size total from a uniform sample of the values, using the GEE
// (Guaranteed-Error Estimator) of Charikar et al., an instance of the
// sampling-based distinct-value techniques the paper points to
// (Haas et al. [13]) for extending the procedure to GROUP BY cardinality:
//
//	D̂ = sqrt(total/n) · f1 + Σ_{j≥2} fj
//
// where fj is the number of distinct values appearing exactly j times in
// the sample. The estimate is clamped to [distinct-in-sample, total].
func EstimateDistinct(keys []string, total int) (float64, error) {
	n := len(keys)
	if n == 0 {
		return 0, fmt.Errorf("core: distinct estimation from an empty sample")
	}
	if total < n {
		total = n
	}
	freq := make(map[string]int, n)
	for _, k := range keys {
		freq[k]++
	}
	f1 := 0
	rest := 0
	for _, c := range freq {
		if c == 1 {
			f1++
		} else {
			rest++
		}
	}
	est := math.Sqrt(float64(total)/float64(n))*float64(f1) + float64(rest)
	if est < float64(len(freq)) {
		est = float64(len(freq))
	}
	if est > float64(total) {
		est = float64(total)
	}
	return est, nil
}

// GroupByCardinality estimates the number of distinct combinations of the
// given grouping columns in a synopsis's underlying population — the
// result cardinality of a GROUP BY over the synopsis's root expression
// (Section 3.5, "Incorporating other operators").
func GroupByCardinality(syn *sample.Synopsis, groupBy []expr.ColumnRef) (float64, error) {
	if syn == nil || len(groupBy) == 0 {
		return 0, fmt.Errorf("core: group-by cardinality needs a synopsis and grouping columns")
	}
	idxs := make([]int, len(groupBy))
	for i, g := range groupBy {
		idx, err := syn.Schema.Resolve(g)
		if err != nil {
			return 0, err
		}
		idxs[i] = idx
	}
	keys := make([]string, 0, syn.Size())
	for _, st := range syn.Strata() {
		for r := range st.NumRows() {
			var sb strings.Builder
			for _, idx := range idxs {
				sb.WriteString(st.Value(r, idx).String())
				sb.WriteByte('\x00')
			}
			keys = append(keys, sb.String())
		}
	}
	return EstimateDistinct(keys, syn.N)
}

// GroupsEstimator is an optional interface a cardinality estimator can
// implement to predict GROUP BY output cardinalities. The optimizer uses
// it, when available, to cost aggregation and size aggregate results
// (Section 3.5, "Incorporating other operators").
type GroupsEstimator interface {
	// EstimateGroups predicts the number of distinct combinations of the
	// grouping columns over the foreign-key join of tables.
	EstimateGroups(tables []string, groupBy []expr.ColumnRef) (float64, error)
}

// EstimateGroups implements GroupsEstimator for the robust estimator via
// the GEE distinct-value estimator over the join synopsis.
func (e *BayesEstimator) EstimateGroups(tables []string, groupBy []expr.ColumnRef) (float64, error) {
	syn, err := e.Synopses.For(tables)
	if err != nil {
		return 0, err
	}
	return GroupByCardinality(syn, groupBy)
}
