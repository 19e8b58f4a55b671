package optimizer

import (
	"slices"
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

// sarg is one merged sargable range: the key range plus the mask of the
// conjuncts it consumed.
type sarg struct {
	rng      engine.KeyRange
	consumed uint64
}

// sargableRanges merges the sargable conjuncts over table i alone into
// one key range per indexed column, in first-appearance column order.
func sargableRanges(a *analysis, schema *catalog.TableSchema, i int) []sarg {
	var out []sarg
	for ci, c := range a.conjuncts {
		if c.tables != 1<<uint(i) || !c.isRange {
			continue
		}
		if _, hasIx := schema.IndexOn(c.rng.Column); !hasIx {
			continue
		}
		k := slices.IndexFunc(out, func(s sarg) bool { return s.rng.Column == c.rng.Column })
		if k < 0 {
			k = len(out)
			out = append(out, sarg{rng: c.rng})
		}
		out[k].rng.Lo = max(out[k].rng.Lo, c.rng.Lo)
		out[k].rng.Hi = min(out[k].rng.Hi, c.rng.Hi)
		out[k].consumed |= 1 << uint(ci)
	}
	return out
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
