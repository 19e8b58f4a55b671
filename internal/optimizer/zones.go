package optimizer

import (
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
//     of its filter excludes, which the scan therefore skips;
//   - an exact selectivity ceiling per estimator request: the fraction of
//     the root's rows held by tiles that no root-table conjunct of the
//     request's own predicate excludes. It rides the request as
//     MaxSelectivity, tightening the posterior before its T-quantile is
//     taken — the same principled move as dropping pruned shards'
//     samples. A ceiling bounds only the predicate it was derived from,
//     so it is derived per request, never per table.

// scanSegs returns the "segments: k/n skipped" arithmetic of a
// sequential scan of query table i under filter; zero when the filter
// has no pushable prefix.
func (p *planner) scanSegs(i int, filter expr.Expr) (skipped, total int) {
	t, schema, ok := p.zoneTable(i)
	if !ok || filter == nil {
		return 0, 0
	}
	bounds, _ := expr.SplitPushdown(filter, schema)
	if len(bounds) == 0 {
		return 0, 0
	}
	zc := t.Zones(bounds, p.scanParts(i))
	return zc.Skipped, zc.Tiles
}

// zoneCeiling returns the exact selectivity ceiling that the zone maps of
// query table root put on pred, a request's predicate over an expression
// rooted there, from pred's pushable root-table conjuncts alone; 0 when
// they exclude no tile. A conjunct pushes over the root's schema exactly
// when it compares one of the root's columns with a literal: analysis
// refuses a bare column name that another query table also has.
func (p *planner) zoneCeiling(root int, pred expr.Expr) float64 {
	t, schema, ok := p.zoneTable(root)
	if !ok || pred == nil {
		return 0
	}
	var bounds []expr.ColBound
	for _, c := range expr.SplitConjuncts(pred) {
		if b, ok := expr.PushableBound(c, schema); ok {
			bounds = append(bounds, b)
		}
	}
	if len(bounds) == 0 {
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

// zoneTable returns query table i and its schema, memoized.
func (p *planner) zoneTable(i int) (*storage.Table, expr.RelSchema, bool) {
	t, ok := p.opt.Ctx.DB.Table(p.a.tables[i])
	if !ok {
		return nil, expr.RelSchema{}, false
	}
	schema, ok := p.schemas[i]
	if !ok {
		schema = expr.SchemaForTable(t.Schema())
		p.schemas[i] = schema
	}
	return t, schema, true
}
