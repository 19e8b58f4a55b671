package optimizer

import (
	"sort"
	"strconv"
	"strings"

	"robustqo/internal/catalog"
	"robustqo/internal/engine"
)

// This file derives what a plan depends on beyond the estimates:
// sargableRanges turns a binding's literals into index key ranges for
// access-path enumeration, and LayoutKey renders the physical layout the
// plan cache folds into every key.

// sarg is one merged sargable range: the key range plus the indices
// (into analysis.conjuncts) of the conjuncts it consumed.
type sarg struct {
	rng      engine.KeyRange
	consumed []int
}

// sargableRanges merges the sargable single-table conjuncts of table i
// into one key range per indexed column, in first-appearance column
// order.
func sargableRanges(a *analysis, schema *catalog.TableSchema, i int) (map[string]*sarg, []string) {
	bit := uint32(1) << uint(i)
	tName := a.tables[i]
	byColumn := make(map[string]*sarg)
	var colOrder []string
	for ci, c := range a.conjuncts {
		if c.mask != bit {
			continue
		}
		ref, lo, hi, ok := intRangeFromConjunct(c.pred)
		if !ok {
			continue
		}
		if ref.Table != "" && ref.Table != tName {
			continue
		}
		if _, hasIx := schema.IndexOn(ref.Column); !hasIx {
			continue
		}
		s, exists := byColumn[ref.Column]
		if !exists {
			s = &sarg{rng: engine.KeyRange{Column: ref.Column, Lo: lo, Hi: hi}}
			byColumn[ref.Column] = s
			colOrder = append(colOrder, ref.Column)
		} else {
			if lo > s.rng.Lo {
				s.rng.Lo = lo
			}
			if hi < s.rng.Hi {
				s.rng.Hi = hi
			}
		}
		s.consumed = append(s.consumed, ci)
	}
	return byColumn, colOrder
}

// LayoutKey canonically encodes a database's partition layout: each
// partitioned table's partitioning column, kind, shard count, and range
// bounds, sorted by table name. The plan cache folds it into every
// cache key so re-partitioning the data can never serve a plan whose
// embedded shard lists describe the old layout.
func LayoutKey(ctx *engine.Context) string {
	if ctx == nil || ctx.DB == nil {
		return ""
	}
	names := ctx.DB.Catalog.TableNames()
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		t, ok := ctx.DB.Table(name)
		if !ok || t.Partitions() <= 1 {
			continue
		}
		spec := t.PartitionSpec()
		if spec == nil {
			continue
		}
		b.WriteString(name)
		b.WriteByte(':')
		b.WriteString(spec.Column)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(spec.Kind)))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(t.Partitions()))
		for _, bound := range spec.Bounds {
			b.WriteByte(',')
			b.WriteString(strconv.FormatInt(bound, 10))
		}
		b.WriteByte(';')
	}
	return b.String()
}
