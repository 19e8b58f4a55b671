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

// DefaultParallelCutoff is the number of rows below which a sequential
// scan stays serial. Fan-out has a fixed price — worker binding, channel
// traffic, the merge barrier — so parallelism only pays once a scan reads
// enough rows; parallelize compares it with the exact rows the scan reads
// (scanRows).
const DefaultParallelCutoff = 20000

// parallelize wraps every SeqScan of the winning plan whose exact live
// rows (scanRows) reach DefaultParallelCutoff in an Exchange at the
// optimizer's MaxDOP. That is its one rule: joins, RID-list scans and
// breakers stay serial above a wrapped scan, so a HashJoin probes an
// Exchange. Interior nodes are mutated in place — the estimates map is
// keyed by node pointer, and EXPLAIN ANALYZE must keep resolving the
// original nodes.
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
		if rows, ok := p.scanRows(t); !ok || rows < DefaultParallelCutoff {
			return n
		}
		ex := &engine.Exchange{Source: n, DOP: p.opt.MaxDOP, Trace: p.opt.Trace}
		// The Exchange inherits the scan's cardinality belief so EXPLAIN
		// ANALYZE can report est/act for it too.
		if est, ok := p.estimates[n]; ok {
			p.estimates[ex] = est
		}
		return ex
	}
	return n
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
