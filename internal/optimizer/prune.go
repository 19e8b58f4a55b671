package optimizer

import (
	"fmt"
	"math"
	"math/bits"

	"robustqo/internal/storage"
)

// Partition pruning is a planner pre-pass, not a plan rewrite: before any
// access path is costed, the single-table conjuncts on each partitioned
// table's partition key are intersected into one closed interval and
// resolved to the set of shards that can hold matching rows. Everything
// downstream consumes the result — the estimator observes only the
// surviving shards' strata of the root's synopsis (pruning happens before
// the posterior's T-quantile is taken, and the pruned and unpruned
// estimates read the same sample), scan costs charge only the surviving
// shards' pages, and the scan nodes carry the shard list into execution.

// tableParts is the pruning verdict for one partitioned query table.
type tableParts struct {
	parts  []int // surviving shards, ascending; may be empty (contradiction)
	total  int   // the table's shard count
	strict bool  // parts is a strict subset of the shards
}

// computePruning fills p.parts for every partitioned query table. Tables
// without a usable constraint on their partition key keep an explicit
// all-shards entry, so estimates and EXPLAIN ANALYZE still report the
// shard arithmetic ("partitions: n/n") even when nothing was eliminated.
func (p *planner) computePruning() {
	p.parts = make([]*tableParts, len(p.a.tables))
	for i, name := range p.a.tables {
		t, ok := p.opt.Ctx.DB.Table(name)
		if !ok || t.Partitions() <= 1 {
			continue
		}
		spec := t.PartitionSpec()
		lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
		found := false
		for cm := p.a.within(1 << uint(i)); cm != 0; cm &= cm - 1 {
			if c := &p.a.conjuncts[bits.TrailingZeros64(cm)]; c.isRange && c.rng.Column == spec.Column {
				lo, hi = max(lo, c.rng.Lo), min(hi, c.rng.Hi)
				found = true
			}
		}
		tp := &tableParts{total: t.Partitions()}
		shards, pruned := []int(nil), false
		if found {
			shards, pruned = t.PrunePartitions(spec.Column, lo, hi)
		}
		if pruned {
			tp.parts = shards
			tp.strict = len(shards) < tp.total
		} else {
			tp.parts = make([]int, tp.total)
			for s := range tp.parts {
				tp.parts[s] = s
			}
		}
		p.parts[i] = tp
	}
}

// prunedRowsPages returns the physical rows and pages a scan of table i
// touches after partition pruning — the whole table when no pruning
// applies. Pages use the same first-tuple-in-window charge the engine
// applies per shard span, so the cost model prices exactly what the
// executed scan will be charged.
func (p *planner) prunedRowsPages(i int) (rows, pages float64, err error) {
	tp := p.parts[i]
	if tp == nil || !tp.strict {
		return p.tableRowsPages(i)
	}
	t, ok := p.opt.Ctx.DB.Table(p.a.tables[i])
	if !ok {
		return 0, 0, fmt.Errorf("optimizer: unknown table %q", p.a.tables[i])
	}
	const per = storage.TuplesPerPage
	for _, s := range tp.parts {
		lo, hi := t.PartitionSpan(s)
		rows += float64(hi - lo)
		pages += float64((hi+per-1)/per - (lo+per-1)/per)
	}
	return rows, pages, nil
}

// scanParts returns the shard list to stamp on a scan node of table i:
// non-nil only when pruning eliminated at least one shard, so unpruned
// plans keep their exact pre-partitioning shape.
func (p *planner) scanParts(i int) []int {
	if tp := p.parts[i]; tp != nil && tp.strict {
		return tp.parts
	}
	return nil
}
