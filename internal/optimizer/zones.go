package optimizer

import "robustqo/internal/expr"

// The zone pass is a planner pre-pass layered on partition pruning: for
// each query table with a fresh columnar encoding, the pushable prefix of
// its single-table predicate is compiled into encoded probes and tested
// against every segment zone map in the surviving shards. A table enters
// p.zones exactly when that prefix is non-empty (colstore.CompilePushdown
// ok), and that membership alone is the scan-path rule: its sequential
// scan runs ScanLate, every other scan the filter-first row path. No
// selectivity estimate takes part, so the choice cannot hinge on a point
// estimate near a knee. The pass yields three things downstream consumers
// share:
//
//   - the scan path (ScanLate for tables in p.zones);
//   - an exact selectivity upper bound (the unskippable row fraction)
//     that rides the estimator request as MaxSelectivity, tightening the
//     posterior before its T-quantile is taken — the same principled
//     move as dropping pruned shards' samples;
//   - the "segments: k/n skipped" arithmetic EXPLAIN ANALYZE reports.

// tableZones is the zone-map verdict for one query table whose encoding
// is present and fresh and whose predicate has a pushable prefix.
type tableZones struct {
	skipped int     // segments provably empty under the pushed bounds
	total   int     // segments in the surviving shards
	maxSel  float64 // unskippable row fraction of the pruned physical rows
}

// segs returns the "segments: k/n skipped" arithmetic; zero for a table
// without zones, whose scans run the row path.
func (tz *tableZones) segs() (skipped, total int) {
	if tz == nil {
		return 0, 0
	}
	return tz.skipped, tz.total
}

// computeZones fills p.zones after computePruning; tables without a fresh
// encoding or a pushable predicate prefix are simply absent and keep the
// row path.
func (p *planner) computeZones() {
	encs := p.opt.Ctx.Encodings
	if encs == nil {
		return
	}
	for i, name := range p.a.tables {
		t, ok := p.opt.Ctx.DB.Table(name)
		if !ok {
			continue
		}
		enc, ok := encs.For(name)
		if !ok || enc.Rows() != t.NumRows() {
			continue // stale encoding: execution would fall back anyway
		}
		bounds, _ := expr.SplitPushdown(p.a.predOnly(i), expr.SchemaForTable(t.Schema()))
		probes, ok := enc.CompilePushdown(bounds)
		if !ok {
			continue
		}
		tz := &tableZones{maxSel: 1}
		// Shards surviving partition pruning; nil means all of them.
		var inShard []bool
		if tp := p.parts[i]; tp != nil && tp.strict {
			inShard = make([]bool, t.Partitions())
			for _, s := range tp.parts {
				inShard[s] = true
			}
		}
		physRows, liveRows := 0, 0
		for si := 0; si < enc.NumSegments(); si++ {
			seg := enc.Segment(si)
			if inShard != nil && (seg.Shard >= len(inShard) || !inShard[seg.Shard]) {
				continue
			}
			tz.total++
			physRows += seg.Rows()
			skip := false
			for pi := range probes {
				if probes[pi].SkipSegment(si) {
					skip = true
					break
				}
			}
			if skip {
				tz.skipped++
			} else {
				liveRows += seg.Rows()
			}
		}
		if physRows > 0 && tz.skipped > 0 {
			tz.maxSel = float64(liveRows) / float64(physRows)
			if tz.maxSel <= 0 {
				// Every segment skipped: keep the bound positive so the
				// conditioned posterior stays proper.
				tz.maxSel = 1e-9
			}
		}
		if p.zones == nil {
			p.zones = make(map[int]*tableZones)
		}
		p.zones[i] = tz
	}
}
