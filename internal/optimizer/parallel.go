package optimizer

import (
	"sync"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/obs"
)

// scanRows is the exact row count a sequential scan reads: the rows of
// the tiles of its surviving shards that no pushed bound excludes, as
// treeEstimates counted them, or, for a scan it did not see, every row
// of those shards.
func (p *planner) scanRows(s *engine.SeqScan) (int, bool) {
	if n, ok := p.scanLive[s]; ok {
		return n, true
	}
	tab, ok := p.opt.Ctx.DB.Table(s.Table)
	if !ok {
		return 0, false
	}
	if s.Partitions == nil {
		return tab.NumRows(), true
	}
	n := 0
	for _, part := range s.Partitions {
		n += tab.PartitionRows(part)
	}
	return n, true
}

// DefaultParallelCutoff is the cardinality below which a scan stays
// serial. Fan-out has a fixed price — worker binding, channel traffic,
// the merge barrier — so parallelism only pays once a scan moves enough
// rows; the decision stays inside the paper's framework by comparing the
// same confidence-threshold cardinality estimates the rest of the plan
// search uses (see parallelize).
const DefaultParallelCutoff = 20000

// parallelize wraps the winning plan's eligible scans in Exchange
// operators at the optimizer's MaxDOP. Interior nodes are mutated in
// place — the estimates map is keyed by node pointer, and EXPLAIN
// ANALYZE must keep resolving the original nodes.
//
// Eligibility is per scan kind: a SeqScan's work is the rows it reads,
// which the zone maps give exactly — those of its surviving shards'
// tiles that no pushed bound of its filter excludes, since the scan
// skips the rest; the RID-list scans are gated on the optimizer's
// cardinality estimate for the node, which under the robust estimator is
// the posterior quantile at the query's confidence threshold T. A higher
// T therefore both picks safer plans and parallelizes them sooner — the
// same knob governs both decisions.
func (p *planner) parallelize(n engine.Node) engine.Node {
	switch t := n.(type) {
	case *engine.Filter:
		t.Input = p.parallelize(t.Input)
	case *engine.Project:
		t.Input = p.parallelize(t.Input)
	case *engine.Aggregate:
		t.Input = p.parallelize(t.Input)
	case *engine.Sort:
		t.Input = p.parallelize(t.Input)
	case *engine.Limit:
		t.Input = p.parallelize(t.Input)
	case *engine.HashJoin:
		t.Build = p.parallelize(t.Build)
		if p.probeChainEligible(t.Probe) {
			// Wrap the whole scan→hashjoin pipeline in one Exchange: the
			// engine morselizes the probe chain itself, so inner Exchanges
			// along it would only add pointless merge barriers. Build sides
			// hanging off the chain still parallelize independently.
			for pr := t.Probe; ; {
				hj, ok := pr.(*engine.HashJoin)
				if !ok {
					break
				}
				hj.Build = p.parallelize(hj.Build)
				pr = hj.Probe
			}
			return p.wrapExchange(t)
		}
		t.Probe = p.parallelize(t.Probe)
	case *engine.MergeJoin:
		t.Left = p.parallelize(t.Left)
		t.Right = p.parallelize(t.Right)
	case *engine.INLJoin:
		t.Outer = p.parallelize(t.Outer)
	case *engine.StarSemiJoin:
		for i := range t.Dims {
			t.Dims[i].Scan = p.parallelize(t.Dims[i].Scan)
		}
	case *engine.SeqScan:
		if rows, ok := p.scanRows(t); ok && rows >= DefaultParallelCutoff {
			return p.wrapExchange(n)
		}
	case *engine.IndexRangeScan:
		if est, ok := p.estimates[n]; ok && est.Rows >= DefaultParallelCutoff {
			return p.wrapExchange(n)
		}
	case *engine.IndexIntersect:
		if est, ok := p.estimates[n]; ok && est.Rows >= DefaultParallelCutoff {
			return p.wrapExchange(n)
		}
	}
	return n
}

// probeChainEligible reports whether a HashJoin probe side is worth
// running through the Exchange worker pool: a chain of hash joins ending
// in a scan that clears the parallel cutoff, judged by the same
// estimates that gate standalone scans — exact rows read for SeqScan,
// the posterior T-quantile estimate for the RID-list scans.
func (p *planner) probeChainEligible(n engine.Node) bool {
	switch t := n.(type) {
	case *engine.SeqScan:
		rows, ok := p.scanRows(t)
		return ok && rows >= DefaultParallelCutoff
	case *engine.IndexRangeScan, *engine.IndexIntersect:
		est, ok := p.estimates[n]
		return ok && est.Rows >= DefaultParallelCutoff
	case *engine.HashJoin:
		return p.probeChainEligible(t.Probe)
	}
	return false
}

func (p *planner) wrapExchange(n engine.Node) engine.Node {
	ex := &engine.Exchange{Source: n, DOP: p.opt.MaxDOP, Trace: p.opt.Trace}
	// The Exchange inherits the scan's cardinality belief so EXPLAIN
	// ANALYZE can report est/act for it too.
	if est, ok := p.estimates[n]; ok {
		p.estimates[ex] = est
	}
	return ex
}

// quantileCacheOf unwraps the estimator (through Chain) to its posterior
// quantile cache, when it has one.
func quantileCacheOf(est core.Estimator) *core.QuantileCache {
	switch e := est.(type) {
	case *core.BayesEstimator:
		return e.Quantiles
	case *core.Chain:
		for _, sub := range e.Estimators {
			if c := quantileCacheOf(sub); c != nil {
				return c
			}
		}
	}
	return nil
}

// quantExportMu serializes the read-reconcile-add below so concurrent
// queries exporting the same cache cannot double count.
var quantExportMu sync.Mutex

// exportQuantileCache reconciles the registry's quantile-cache counters
// with the cache's cumulative totals. The cache is shared across queries
// (and across WithThreshold copies), so the counters mirror its absolute
// hit/miss counts rather than adding per-query deltas; the export is
// idempotent and safe under concurrent serving. It assumes one cache per
// registry — true for both the CLI and a serve process.
func exportQuantileCache(reg *obs.Registry, qc *core.QuantileCache) {
	if reg == nil || qc == nil {
		return
	}
	hits, misses := qc.Stats()
	quantExportMu.Lock()
	defer quantExportMu.Unlock()
	hc := reg.Counter("robustqo_quantile_cache_hits_total")
	if d := hits - hc.Value(); d > 0 {
		hc.Add(d)
	}
	mc := reg.Counter("robustqo_quantile_cache_misses_total")
	if d := misses - mc.Value(); d > 0 {
		mc.Add(d)
	}
}
