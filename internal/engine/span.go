package engine

// Partition-aware scan spans. A scan node carries an optional Partitions
// list (set by the optimizer's pruning pass); the engine resolves it to
// the global row-id intervals of the surviving shards. Because shards
// occupy contiguous, ascending row-id intervals (storage keeps row ids
// partition-major), a pruned scan is just the same scan restricted to a
// sequence of [lo, hi) windows — rows still stream in global row-id
// order, and the first-tuple-in-window page-charge formula stays
// tiling-invariant across any disjoint covering, so serial, materialized,
// and scatter-gather parallel drains all charge byte-identical counters.

import (
	"fmt"

	"robustqo/internal/storage"
)

// rowSpan is a half-open global row-id interval [lo, hi).
type rowSpan struct{ lo, hi int }

// scanSpans resolves a scan's surviving-partition list to row-id spans.
// A nil list means no pruning: one span covering the whole table, which
// reproduces the pre-partitioning behavior exactly. A non-nil list yields
// the listed shards' spans in the given (ascending) order; an empty list
// prunes everything.
func scanSpans(t *storage.Table, parts []int) []rowSpan {
	if parts == nil {
		return []rowSpan{{0, t.NumRows()}}
	}
	spans := make([]rowSpan, 0, len(parts))
	for _, p := range parts {
		lo, hi := t.PartitionSpan(p)
		if lo < hi {
			spans = append(spans, rowSpan{lo, hi})
		}
	}
	return spans
}

// A morsel is a whole number of windows: SegmentRows must be a multiple
// of BatchSize, or this constant overflows.
const _ uint = -(storage.SegmentRows % BatchSize)

// spanMorselsShards tiles the spans into morsels, one zone-map tile each:
// shard-major (span order), each morsel fully inside one shard and cut at
// multiples of storage.SegmentRows from its shard's base, so a morsel's
// windows are the same windows at any DOP and never straddle a tile. The
// second result is, per morsel, the index of the span (shard) it was
// tiled from — the mapping behind the Exchange's per-shard row-skew
// metric.
func spanMorselsShards(spans []rowSpan) ([]rowSpan, []int) {
	var out []rowSpan
	var shard []int
	for si, s := range spans {
		for lo := s.lo; lo < s.hi; lo += storage.SegmentRows {
			out = append(out, rowSpan{lo, min(lo+storage.SegmentRows, s.hi)})
			shard = append(shard, si)
		}
	}
	return out, shard
}

// filterRidsToSpans keeps the RIDs inside the surviving shards' spans.
// Index RID lists and span lists are both ascending, so a single linear
// merge filters the list; pruned shards' rows are never fetched, which is
// what keeps their random-page charges at zero.
func filterRidsToSpans(rids []int32, spans []rowSpan) []int32 {
	out := make([]int32, 0, len(rids))
	i := 0
	for _, s := range spans {
		for i < len(rids) && int(rids[i]) < s.lo {
			i++
		}
		for i < len(rids) && int(rids[i]) < s.hi {
			out = append(out, rids[i])
			i++
		}
	}
	return out
}

// pruneRids applies a scan's partition list to an index-produced RID
// list; nil parts passes the list through untouched.
func pruneRids(t *storage.Table, parts []int, rids []int32) []int32 {
	if parts == nil {
		return rids
	}
	return filterRidsToSpans(rids, scanSpans(t, parts))
}

// partsSuffix renders a scan's surviving-partition list for Describe;
// empty for unpruned scans so existing plan strings are unchanged.
func partsSuffix(parts []int) string {
	if parts == nil {
		return ""
	}
	return fmt.Sprintf(", partitions=%v", parts)
}
