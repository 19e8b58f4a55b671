package optimizer

import (
	"math/bits"

	"robustqo/internal/expr"
	"robustqo/internal/storage"
)

// The zone pass reads the storage layer's zone maps — the min and max of
// every SegmentRows tile of a shard, which Append keeps for every table —
// in the shards that survive partition pruning. It chooses nothing: there
// is one scan path, and its filter skips excluded tiles by itself. It
// yields two things:
//
//   - the "segments: k/n skipped" arithmetic EXPLAIN ANALYZE reports for a
//     sequential scan: of a scan's n tiles, the k that the pushable prefix
//     of its filter excludes, which the scan therefore skips, and the rows
//     it therefore reads, which decide whether it runs in parallel;
//   - an exact selectivity ceiling per estimator request: the fraction of
//     the root's rows held by tiles that no root-table conjunct of the
//     request's own predicate excludes. It rides the request as
//     MaxSelectivity, tightening the posterior before its T-quantile is
//     taken — the same principled move as dropping pruned shards'
//     samples. A ceiling bounds only the predicate it was derived from,
//     so it is derived per request, never per table.

// scanZones returns what the zone maps prove about a sequential scan of
// query table i, whose filter is the table's own conjuncts: in the shards
// that survive pruning, the tiles that the pushable prefix of those
// conjuncts excludes (expr.SplitPushdown), which the scan skips, and
// Live, the rows of the others, which it reads. pushed is false when the
// filter has no pushable prefix; every tile is then live.
func (p *planner) scanZones(i int) (zc storage.ZoneCount, pushed bool) {
	var bounds []expr.ColBound
	for cm := p.a.within(1 << uint(i)); cm != 0; cm &= cm - 1 {
		c := &p.a.conjuncts[bits.TrailingZeros64(cm)]
		if !c.pushable {
			break
		}
		bounds = append(bounds, c.bound)
	}
	t, ok := p.opt.Ctx.DB.Table(p.a.tables[i])
	if !ok {
		return storage.ZoneCount{}, false
	}
	return t.Zones(bounds, p.scanParts(i)), len(bounds) > 0
}

// zoneCeiling returns the exact selectivity ceiling that the zone maps of
// query table root put on the conjuncts cm of a request over an
// expression rooted there, from their pushable root-table conjuncts
// alone; 0 when those exclude no tile. Only a conjunct over the root
// alone can push over the root's schema: it must compare one of the
// root's columns with a literal, and analysis refuses a bare column name
// that another query table also has.
func (p *planner) zoneCeiling(root int, cm uint64) float64 {
	var bounds []expr.ColBound
	for ; cm != 0; cm &= cm - 1 {
		if c := &p.a.conjuncts[bits.TrailingZeros64(cm)]; c.pushable && c.tables == 1<<uint(root) {
			bounds = append(bounds, c.bound)
		}
	}
	if len(bounds) == 0 {
		return 0
	}
	t, ok := p.opt.Ctx.DB.Table(p.a.tables[root])
	if !ok {
		return 0
	}
	zc := t.Zones(bounds, p.scanParts(root))
	if zc.Skipped == 0 || zc.Rows == 0 {
		return 0
	}
	// Every tile skipped: keep the bound positive so the conditioned
	// posterior stays proper.
	return max(float64(zc.Live)/float64(zc.Rows), 1e-9)
}
