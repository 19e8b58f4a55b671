package core

import (
	"fmt"

	"robustqo/internal/catalog"
	"robustqo/internal/expr"
	"robustqo/internal/histogram"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
)

// Request asks for the cardinality of one SPJ expression: the foreign-key
// join of Tables filtered by Pred (a conjunction of non-join predicates
// with, when needed, table-qualified column references). Pred may be nil.
type Request struct {
	Tables []string
	Pred   expr.Expr
	// Partitions, when non-nil, restricts the expression's root relation
	// to the listed shards (the optimizer's pruning pass sets it). The
	// Bayesian estimator then observes only those shards' strata of the
	// root's synopsis — pruning happens before quantiling, so the estimate
	// tightens as shards drop. nil means every shard.
	Partitions []int
	// MaxSelectivity, when in (0, 1), is an exact upper bound on the
	// root's selectivity established outside the sample — the optimizer's
	// zone-map pass sets it to the unskippable fraction of the root's
	// segments. The Bayesian estimator conditions its quantile on the
	// bound (sel ≤ f with certainty), which tightens the estimate the
	// same way dropping pruned shards does. Zero (or ≥ 1) means no bound.
	MaxSelectivity float64
}

// Estimate is a cardinality answer. Selectivity is the estimated fraction
// of the expression's root relation that survives; Rows is the estimated
// result cardinality (for foreign-key joins, row count of the root times
// Selectivity). Callers that need the full posterior ask the estimator for
// its Distribution.
type Estimate struct {
	Selectivity float64
	Rows        float64
}

// Estimator is the cardinality estimation module interface the optimizer
// calls. Implementations: BayesEstimator (the paper's technique),
// HistogramEstimator (the conventional baseline), MagicEstimator (the
// no-statistics fallback), and Chain.
type Estimator interface {
	Estimate(req Request) (Estimate, error)
	// Name identifies the technique in reports and experiment output.
	Name() string
}

// EstimationRule selects how a BayesEstimator condenses the posterior to
// the single value the optimizer consumes.
type EstimationRule int

const (
	// RuleQuantile is the paper's rule: cdf⁻¹(T) of the posterior.
	RuleQuantile EstimationRule = iota
	// RuleMean returns the posterior mean (k+a)/(n+a+b) — what a
	// least-expected-cost optimizer uses when cost is linear in
	// cardinality (Chu et al. [6, 7]). Ignores the threshold.
	RuleMean
	// RuleML returns the classical maximum-likelihood estimate k/n
	// (Acharya et al. [1]). Ignores the threshold and the prior.
	RuleML
)

func (r EstimationRule) String() string {
	switch r {
	case RuleQuantile:
		return "quantile"
	case RuleMean:
		return "posterior-mean"
	case RuleML:
		return "max-likelihood"
	default:
		return fmt.Sprintf("EstimationRule(%d)", int(r))
	}
}

// BayesEstimator is the robust estimator of Sections 3.2–3.4: it counts
// predicate matches on the join synopsis of the expression's root
// relation, forms the Beta posterior, and condenses it by Rule — by
// default inverting its cdf at the confidence threshold.
type BayesEstimator struct {
	Synopses  *sample.Set
	Prior     Prior
	Threshold ConfidenceThreshold
	Rule      EstimationRule
	// Quantiles memoizes posterior inverse-CDF evaluations across
	// estimates (and across WithThreshold copies, which share the
	// pointer). Nil disables memoization.
	Quantiles *QuantileCache
}

// NewBayesEstimator returns a robust estimator with the paper's defaults
// (Jeffreys prior) at the given threshold.
func NewBayesEstimator(synopses *sample.Set, t ConfidenceThreshold) (*BayesEstimator, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if synopses == nil {
		return nil, fmt.Errorf("core: nil synopsis set")
	}
	return &BayesEstimator{Synopses: synopses, Prior: Jeffreys, Threshold: t, Quantiles: NewQuantileCache()}, nil
}

// Name implements Estimator.
func (e *BayesEstimator) Name() string {
	if e.Rule != RuleQuantile {
		return fmt.Sprintf("bayes(%s, prior=Beta(%g,%g))", e.Rule, e.Prior.A, e.Prior.B)
	}
	return fmt.Sprintf("bayes(%s, prior=Beta(%g,%g))", e.Threshold, e.Prior.A, e.Prior.B)
}

// ConfidenceReporter is implemented by estimators whose point estimates
// are posterior quantiles at a confidence threshold T. Consumers — the
// optimizer tagging EXPLAIN ANALYZE snapshots, the parallelize post-pass
// gating DOP decisions — use it to learn which T an estimate was produced
// under without knowing the concrete estimator type.
type ConfidenceReporter interface {
	// ConfidenceLevel returns the posterior percentile point estimates are
	// taken at; the bool is false when the estimator does not condense
	// through a quantile.
	ConfidenceLevel() (float64, bool)
}

// ConfidenceLevel reports the posterior percentile the estimator takes
// its point estimates at, for observability snapshots (EXPLAIN ANALYZE
// tags every estimate with the T it was produced under). The bool is
// false when the estimator does not condense through a quantile.
func (e *BayesEstimator) ConfidenceLevel() (float64, bool) {
	if e.Rule != RuleQuantile {
		return 0, false
	}
	return float64(e.Threshold), true
}

// ConfidenceLevel reports the percentile of the first chained estimator
// that exposes one.
func (c *Chain) ConfidenceLevel() (float64, bool) {
	for _, e := range c.Estimators {
		if cl, ok := e.(ConfidenceReporter); ok {
			if t, ok := cl.ConfidenceLevel(); ok {
				return t, true
			}
		}
	}
	return 0, false
}

// WithThreshold returns a copy of the estimator using a different
// confidence threshold — the mechanism behind per-query hints
// (Section 6.2.5).
func (e *BayesEstimator) WithThreshold(t ConfidenceThreshold) (*BayesEstimator, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	cp := *e
	cp.Threshold = t
	return &cp, nil
}

// Observe evaluates the request's predicate on the synopsis rooted at the
// expression's root relation and returns the observation (k matches of n)
// along with the population those n tuples represent. Exposed for
// analysis and experiment code.
//
// The synopsis is stratified by shard, so the observation covers the
// shards the request lists (nil: all of them): k = Σ k_p, n = Σ n_p,
// population = Σ N_p. Proportional allocation makes that one valid
// observation of the listed shards' union, and the posterior is
// Beta(Σk_p + a, Σ(n_p−k_p) + b) — dropping pruned shards removes their
// samples before the quantile is taken.
func (e *BayesEstimator) Observe(req Request) (k, n, population int, err error) {
	syn, err := e.Synopses.For(req.Tables)
	if err != nil {
		return 0, 0, 0, err
	}
	return syn.CountStrata(req.Pred, req.Partitions)
}

// Distribution returns the full posterior selectivity distribution for a
// request, for callers that reason about uncertainty directly (e.g. the
// cost pdf/cdf derivations behind Figures 2 and 3).
func (e *BayesEstimator) Distribution(req Request) (stats.Beta, error) {
	k, n, _, err := e.Observe(req)
	if err != nil {
		return stats.Beta{}, err
	}
	return e.Prior.Posterior(k, n)
}

// Estimate implements Estimator.
func (e *BayesEstimator) Estimate(req Request) (Estimate, error) {
	if e.Rule == RuleQuantile {
		if err := e.Threshold.Validate(); err != nil {
			return Estimate{}, err
		}
	}
	k, n, population, err := e.Observe(req)
	if err != nil {
		return Estimate{}, err
	}
	post, err := e.Prior.Posterior(k, n)
	if err != nil {
		return Estimate{}, err
	}
	f := req.MaxSelectivity
	bounded := f > 0 && f < 1
	var sel float64
	switch e.Rule {
	case RuleQuantile:
		p := float64(e.Threshold)
		if bounded {
			// Condition the posterior on the exact bound sel ≤ f: the
			// truncated distribution's T-quantile is the unconditioned
			// posterior's quantile at p = T · CDF(f). CDF(f) ≤ 1 and the
			// quantile function is monotone, so the conditioned estimate
			// never exceeds the unconditioned one — zone-map evidence only
			// ever tightens.
			p *= post.CDF(f)
			if p <= 0 {
				// Degenerate truncation (CDF underflow): the bound itself is
				// the tightest defensible estimate.
				sel = f
				break
			}
		}
		sel, err = e.Quantiles.Quantile(post, p)
	case RuleMean:
		sel = post.Mean()
	case RuleML:
		sel, err = MLSelectivity(k, n)
	default:
		return Estimate{}, fmt.Errorf("core: unknown estimation rule %d", int(e.Rule))
	}
	if err != nil {
		return Estimate{}, err
	}
	if bounded && sel > f { //qolint:allow-floatcmp — hard clamp at an exact bound, not a ranking
		// Mean/ML (and quantile rounding) respect the hard bound too.
		sel = f
	}
	return Estimate{Selectivity: sel, Rows: sel * float64(population)}, nil
}

// HistogramEstimator is the conventional baseline: equi-depth histograms
// combined under the attribute value independence assumption, with
// result cardinality from the containment assumption (each root row joins
// exactly one row of each foreign-key-referenced table).
type HistogramEstimator struct {
	Stats   *histogram.Collection
	Catalog *catalog.Catalog
}

// NewHistogramEstimator returns the baseline estimator.
func NewHistogramEstimator(stats *histogram.Collection, cat *catalog.Catalog) (*HistogramEstimator, error) {
	if stats == nil || cat == nil {
		return nil, fmt.Errorf("core: histogram estimator needs statistics and a catalog")
	}
	return &HistogramEstimator{Stats: stats, Catalog: cat}, nil
}

// Name implements Estimator.
func (e *HistogramEstimator) Name() string { return "histograms(AVI)" }

// Estimate implements Estimator.
func (e *HistogramEstimator) Estimate(req Request) (Estimate, error) {
	root, err := e.Catalog.RootOf(req.Tables)
	if err != nil {
		return Estimate{}, err
	}
	rows, ok := e.Stats.Rows(root)
	if !ok {
		return Estimate{}, fmt.Errorf("core: no statistics for table %q", root)
	}
	sel := histogram.Estimate(e.Stats, e.Catalog, req.Tables, req.Pred)
	return Estimate{Selectivity: sel, Rows: sel * float64(rows)}, nil
}

// MagicEstimator answers every request with a fixed "magic" value — the
// no-statistics fallback of Section 3.5. When Distribution is non-nil it
// acts as the paper's "magic distribution" extension: the returned
// selectivity is the distribution's quantile at Threshold, so the
// fallback too responds to the robustness knob.
type MagicEstimator struct {
	Selectivity  float64
	Distribution *stats.Beta
	Threshold    ConfidenceThreshold
	// RowsFor, if set, supplies root-table cardinalities so Rows can be
	// populated; otherwise Rows is reported as 0 and callers must scale.
	RowsFor func(table string) (int, bool)
	// Root resolves the request's root table; defaults to the first table.
	Catalog *catalog.Catalog
}

// Name implements Estimator.
func (e *MagicEstimator) Name() string { return "magic" }

// Estimate implements Estimator.
func (e *MagicEstimator) Estimate(req Request) (Estimate, error) {
	if len(req.Tables) == 0 {
		return Estimate{}, fmt.Errorf("core: magic estimate over no tables")
	}
	sel := e.Selectivity
	if e.Distribution != nil {
		if err := e.Threshold.Validate(); err != nil {
			return Estimate{}, err
		}
		q, err := e.Distribution.Quantile(float64(e.Threshold))
		if err != nil {
			return Estimate{}, err
		}
		sel = q
	}
	if sel < 0 || sel > 1 {
		return Estimate{}, fmt.Errorf("core: magic selectivity %g outside [0, 1]", sel)
	}
	root := req.Tables[0]
	if e.Catalog != nil {
		if r, err := e.Catalog.RootOf(req.Tables); err == nil {
			root = r
		}
	}
	est := Estimate{Selectivity: sel}
	if e.RowsFor != nil {
		if n, ok := e.RowsFor(root); ok {
			est.Rows = sel * float64(n)
		}
	}
	return est, nil
}

// Chain tries estimators in order and returns the first success — the
// paper's degradation story: per-expression fallback from join synopses
// to single-table statistics to magic numbers, with errors confined to
// the subexpressions lacking samples (Section 3.5).
type Chain struct {
	Estimators []Estimator
}

// Name implements Estimator.
func (c *Chain) Name() string {
	if len(c.Estimators) == 0 {
		return "chain()"
	}
	return "chain(" + c.Estimators[0].Name() + ", ...)"
}

// Estimate implements Estimator.
func (c *Chain) Estimate(req Request) (Estimate, error) {
	var firstErr error
	for _, e := range c.Estimators {
		est, err := e.Estimate(req)
		if err == nil {
			return est, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("core: empty estimator chain")
	}
	return Estimate{}, firstErr
}

// EstimateGroups implements GroupsEstimator for the baseline using the
// histograms' per-bucket distinct counts: the estimate is the product of
// per-column distinct counts (the independence assumption again), capped
// by the root table's cardinality.
func (e *HistogramEstimator) EstimateGroups(tables []string, groupBy []expr.ColumnRef) (float64, error) {
	if len(groupBy) == 0 {
		return 0, fmt.Errorf("core: no grouping columns")
	}
	root, err := e.Catalog.RootOf(tables)
	if err != nil {
		return 0, err
	}
	rows, ok := e.Stats.Rows(root)
	if !ok {
		return 0, fmt.Errorf("core: no statistics for table %q", root)
	}
	product := 1.0
	for _, g := range groupBy {
		d, ok := e.distinctOf(tables, g)
		if !ok {
			// No histogram (e.g. a string column): assume a tenth of the
			// rows are distinct, the usual magic guess.
			d = float64(rows) / 10
		}
		product *= d
		if product > float64(rows) {
			return float64(rows), nil
		}
	}
	return product, nil
}

func (e *HistogramEstimator) distinctOf(tables []string, ref expr.ColumnRef) (float64, bool) {
	candidates := tables
	if ref.Table != "" {
		candidates = []string{ref.Table}
	}
	for _, t := range candidates {
		if h, ok := e.Stats.Lookup(t, ref.Column); ok {
			return float64(h.DistinctTotal()), true
		}
	}
	return 0, false
}

// Compile-time checks that both estimators support group estimation.
var (
	_ GroupsEstimator = (*BayesEstimator)(nil)
	_ GroupsEstimator = (*HistogramEstimator)(nil)
)
