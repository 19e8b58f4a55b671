package optimizer

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"robustqo/internal/catalog"
	"robustqo/internal/colstore"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
)

// This file is the optimizer's interface to the plan cache
// (internal/plancache): everything a cached plan needs in order to be
// re-bound to new parameter values without re-running plan enumeration.
// AnalyzeBinding re-derives the literal-dependent planning inputs —
// per-conjunct estimator requests, partition-pruning and zone-map
// verdicts, and the merged sargable index ranges — for a freshly bound
// query, and Plan.Rebound transplants a plan's estimate snapshots onto the
// re-bound node tree. Both run the same code paths Optimize itself uses
// (analyze, computePruning, computeZones, sargableRanges), so the cache
// can never drift from what a cold optimization would have derived.

// sarg is one merged sargable range: the key range plus the indices
// (into analysis.conjuncts) of the conjuncts it consumed.
type sarg struct {
	rng      engine.KeyRange
	consumed []int
}

// sargableRanges merges the sargable single-table conjuncts of table i
// into one key range per indexed column, in first-appearance column
// order — the shared derivation behind both access-path enumeration and
// plan re-binding.
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

// BoundConjunct is one top-level AND term of a query's predicate with
// the estimator request it marginally corresponds to: the tables of its
// reference mask and the surviving shards of the pruned root. The plan
// cache records a credible interval per conjunct at plan time and
// re-checks the conjuncts whose parameters changed at re-bind time.
type BoundConjunct struct {
	Pred   expr.Expr
	Tables []string // tables the conjunct references; nil for table-free terms
	// Partitions is the shard list the estimator should observe for
	// this conjunct's root relation (nil = all shards / unpartitioned),
	// matching what enumeration passes in core.Request.Partitions.
	Partitions []int
}

// BindInfo captures every literal-dependent planning input of a bound
// query, derived without a single estimator call.
type BindInfo struct {
	// Conjuncts holds the top-level AND terms of the predicate in
	// expr.SplitConjuncts order — the same order analyze assigns, so a
	// template's conjunct positions line up across re-bindings.
	Conjuncts []BoundConjunct
	// ScanParts is the per-table shard list a scan node would be
	// stamped with (present only when pruning is strict), keyed by
	// table name.
	ScanParts map[string][]int
	// PartsKey canonically encodes the full pruning verdict — per
	// partitioned table, its surviving shard list out of its total. Two
	// bindings with equal PartsKey prune identically.
	PartsKey string
	// Ranges holds the merged sargable key range per table and indexed
	// column — the values IndexRangeScan/IndexIntersect nodes embed.
	Ranges map[string]map[string]engine.KeyRange
	// zones is the zone pass's verdict per table name, for the
	// "segments: k/n skipped" arithmetic Plan.Rebound restamps.
	zones map[string]*tableZones
}

// AnalyzeBinding derives the BindInfo of a query against the context's
// catalog, partition layout and columnar encodings. It runs the
// optimizer's own analysis, pruning and zone pre-passes but stops before
// anything estimate-dependent: no estimator calls, no plan enumeration.
// Cost is linear in the predicate size plus one zone-map test per
// encoded segment — cheap enough for every plan-cache re-bind.
func AnalyzeBinding(ctx *engine.Context, q *Query) (*BindInfo, error) {
	if ctx == nil {
		return nil, fmt.Errorf("optimizer: AnalyzeBinding needs an execution context")
	}
	a, err := analyze(ctx.DB.Catalog, q)
	if err != nil {
		return nil, err
	}
	p := &planner{opt: &Optimizer{Ctx: ctx}, a: a}
	p.computePruning()
	p.computeZones()

	info := &BindInfo{}
	for i, name := range a.tables {
		if tz := p.zones[i]; tz != nil {
			if info.zones == nil {
				info.zones = make(map[string]*tableZones, len(p.zones))
			}
			info.zones[name] = tz
		}
	}
	for _, c := range a.conjuncts {
		bc := BoundConjunct{Pred: c.pred}
		if c.mask != 0 {
			bc.Tables = a.tablesOf(c.mask)
			bc.Partitions = p.partsForMask(c.mask)
		}
		info.Conjuncts = append(info.Conjuncts, bc)
	}

	var partsKey strings.Builder
	for i, name := range a.tables {
		schema, ok := ctx.DB.Catalog.Table(name)
		if !ok {
			return nil, fmt.Errorf("optimizer: unknown table %q", name)
		}
		if tp := p.parts[i]; tp != nil {
			partsKey.WriteString(name)
			partsKey.WriteByte('=')
			for _, s := range tp.parts {
				partsKey.WriteString(strconv.Itoa(s))
				partsKey.WriteByte(',')
			}
			partsKey.WriteByte('/')
			partsKey.WriteString(strconv.Itoa(tp.total))
			partsKey.WriteByte(';')
			if sp := p.scanParts(i); sp != nil {
				if info.ScanParts == nil {
					info.ScanParts = make(map[string][]int)
				}
				info.ScanParts[name] = sp
			}
		}
		byColumn, colOrder := sargableRanges(a, schema, i)
		if len(colOrder) == 0 {
			continue
		}
		if info.Ranges == nil {
			info.Ranges = make(map[string]map[string]engine.KeyRange)
		}
		cols := make(map[string]engine.KeyRange, len(colOrder))
		for _, col := range colOrder {
			cols[col] = byColumn[col].rng
		}
		info.Ranges[name] = cols
	}
	info.PartsKey = partsKey.String()
	return info, nil
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
	// Columnar encodings are part of the physical layout: plans carry a
	// per-scan materialization mode chosen against a specific segment
	// image, so the format version and the set's build generation fold
	// into the key. Rebuilding encodings bumps the generation, which
	// shifts every cached plan's key — stale segment layouts miss instead
	// of being served.
	if ctx.Encodings != nil {
		b.WriteString("enc:v")
		b.WriteString(strconv.Itoa(colstore.FormatVersion))
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(ctx.Encodings.Generation(), 10))
		b.WriteByte(';')
	}
	return b.String()
}

// Rebound returns a copy of the plan re-rooted at root, with the
// planning-time estimate snapshots transplanted through remap (original
// node → re-bound node, as returned by engine.Rebind). The cost,
// cardinality, and confidence figures are carried over unchanged: a
// re-bind is only performed when every changed parameter's point
// estimate stayed inside the credible interval the plan was optimized
// under, so the old figures remain the plan's honest belief. The zone-map
// arithmetic is not a belief but a fact of the new literals, so each
// sequential scan's SegsSkipped/SegsTotal is restamped from info — the
// new binding's AnalyzeBinding — exactly as a cold Optimize records it.
func (p *Plan) Rebound(root engine.Node, remap map[engine.Node]engine.Node, info *BindInfo) *Plan {
	cp := *p
	cp.Root = root
	cp.estimates = make(map[engine.Node]obs.EstimateSnapshot, len(p.estimates))
	for old, snap := range p.estimates {
		nn, ok := remap[old]
		if !ok {
			continue
		}
		if seq, ok := nn.(*engine.SeqScan); ok {
			snap.SegsSkipped, snap.SegsTotal = info.zones[seq.Table].segs()
		}
		cp.estimates[nn] = snap
	}
	return &cp
}
