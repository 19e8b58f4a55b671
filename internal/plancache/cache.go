package plancache

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/optimizer"
	"robustqo/internal/value"
)

// numShards is the cache's lock-striping factor. Shard selection hashes
// the full key, so concurrent lookups of different templates rarely
// contend on the same mutex.
const numShards = 16

// Outcome classifies what a Plan call did.
type Outcome int

// Plan outcomes.
const (
	// Miss: no usable entry; the plan was built by full optimization
	// and inserted.
	Miss Outcome = iota
	// Hit: the entry's current binding matched exactly; the cached plan
	// was returned with zero estimation work.
	Hit
	// Rebind: parameters changed but every changed estimate's point
	// check stayed inside its planning-time credible interval; the
	// cached plan was re-bound to the new literals without
	// re-optimization.
	Rebind
	// Reject: an entry existed but the new binding left a credible
	// interval or changed the partition-pruning verdict; the plan was
	// re-optimized and the entry replaced.
	Reject
)

func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Rebind:
		return "rebind"
	case Reject:
		return "reject"
	default:
		return "outcome(" + strconv.Itoa(int(o)) + ")"
	}
}

// Cached reports whether the outcome avoided a full optimization.
func (o Outcome) Cached() bool { return o == Hit || o == Rebind }

// Env carries everything a Plan call needs from the serving layer: the
// execution context (catalog + partition layout), the estimator identity
// plans are built under, and the cold-path optimizer.
type Env struct {
	Ctx *engine.Context
	Est core.Estimator
	// Optimize is the cold path: build a fresh plan for q. Called on
	// Miss and Reject.
	Optimize func(q *optimizer.Query) (*optimizer.Plan, error)
	// DOP is the parallelism the plan was (or will be) parallelized
	// for; it is part of the cache key because Exchange operators and
	// their placement are baked into the plan tree.
	DOP int
}

// check is one credible-interval guard: conjunct (index into the
// template's SplitConjuncts order) was planned under a selectivity
// estimate whose posterior central interval was [lo, hi].
type check struct {
	conjunct int
	lo, hi   float64
}

// maxVariants bounds the binding variants one template entry retains.
// Multiple variants keep a workload's hot bindings cached even while
// ad-hoc bindings of the same template reject in and out (the adaptive
// cursor sharing shape: one "cursor" per plan-distinct binding).
const maxVariants = 8

// variant is one cached (binding, plan) instantiation of a template.
type variant struct {
	// params is the binding the variant's plan embeds.
	params []value.Value
	plan   *optimizer.Plan
	// partsKey is the canonical pruning verdict the plan was built
	// under; a binding that prunes differently must not reuse the plan
	// (the shard lists inside scan nodes would be stale).
	partsKey string
	// conjStrs renders each conjunct of the CURRENT binding — the
	// strings embedded in the cached plan's predicates. The re-bind
	// rewriter matches plan predicates against them positionally.
	conjStrs []string
	checks   []check
	// exactOnly variants only serve identical re-bindings: the estimator
	// exposes no posterior intervals, or a slotted conjunct has no
	// estimable relation (a table-free term).
	exactOnly bool
}

// entry is one cached template.
type entry struct {
	mu sync.Mutex
	// tpl is the normalization of the first query that populated the
	// entry; its slot order is the contract params are interpreted by.
	tpl *Template
	// variants is most-recently-used first.
	variants []*variant
	gen      uint64
}

type cacheShard struct {
	mu      sync.RWMutex
	entries map[string]*entry
	order   []string // insertion order, for FIFO eviction
}

// Cache is a sharded, concurrent plan cache. All methods are safe for
// concurrent use; cached plan trees are immutable and shared across
// concurrent executions (engine nodes hand out fresh operators per
// Stream call).
type Cache struct {
	shards  [numShards]cacheShard
	perShed int
	gen     atomic.Uint64
	reg     *obs.Registry
}

// New returns a cache bounded to roughly maxEntries across all shards
// (each shard holds at most ceil(maxEntries/numShards); oldest entries
// are evicted first). Metrics are exported to reg when non-nil.
func New(maxEntries int, reg *obs.Registry) *Cache {
	if maxEntries < numShards {
		maxEntries = numShards
	}
	c := &Cache{perShed: (maxEntries + numShards - 1) / numShards, reg: reg}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*entry)
	}
	return c
}

// Invalidate drops every cached plan by bumping the cache generation:
// call it when statistics are rebuilt (synopses resampled) or data is
// reloaded. Stale entries are collected lazily on next lookup. The
// partition layout does not need an explicit Invalidate — it is part of
// every key via optimizer.LayoutKey.
func (c *Cache) Invalidate() {
	c.gen.Add(1)
}

// Len returns the live entry count across shards (stale-generation
// entries not yet collected included).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.entries)
		s.mu.RUnlock()
	}
	return n
}

// fullKey composes the complete cache key: template shape × estimator
// identity (embeds the confidence threshold T) × DOP × partition layout.
//
//qo:hotpath
func fullKey(tplKey, estName string, dop int, layout string) string {
	var b strings.Builder
	b.Grow(len(tplKey) + len(estName) + len(layout) + 8)
	b.WriteString(tplKey)
	b.WriteByte(0x1f)
	b.WriteString(estName)
	b.WriteByte(0x1f)
	b.WriteString(strconv.Itoa(dop))
	b.WriteByte(0x1f)
	b.WriteString(layout)
	return b.String()
}

// shardOf selects the lock stripe for a key by FNV-1a, inlined so the
// hit path never constructs a hash.Hash.
//
//qo:hotpath
func (c *Cache) shardOf(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h%numShards]
}

// paramsEqual reports whether two bindings are value-identical.
//
//qo:hotpath
func paramsEqual(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Plan returns an executable plan for q, consulting the cache first.
//
// The decision ladder, per DESIGN.md §13:
//  1. no entry → optimize, record per-conjunct credible intervals, insert (Miss);
//  2. entry with identical parameters → cached plan as-is (Hit);
//  3. parameters changed → cheap re-bind check: same pruning verdict and
//     every changed conjunct's point estimate inside its planning-time
//     interval → clone the plan with new literals substituted (Rebind);
//  4. any check fails → re-optimize and replace the entry (Reject).
//
// Steps 2–3 never invert a posterior CDF; step 3's point checks evaluate
// the predicate on the synopsis but skip quantiling entirely.
func (c *Cache) Plan(env Env, q *optimizer.Query) (*optimizer.Plan, Outcome, error) {
	tpl := Normalize(q)
	key := fullKey(tpl.Key, env.Est.Name(), env.DOP, optimizer.LayoutKey(env.Ctx))
	gen := c.gen.Load()
	shard := c.shardOf(key)

	shard.mu.RLock()
	e := shard.entries[key]
	shard.mu.RUnlock()

	if e != nil {
		e.mu.Lock()
		if e.gen != gen {
			e.mu.Unlock()
			c.dropStale(shard, key, gen)
			if c.reg != nil {
				c.reg.Counter("robustqo_plancache_invalidations_total").Inc()
			}
			e = nil
		} else {
			// Exact binding match against any retained variant: pure hit.
			for i, v := range e.variants {
				if paramsEqual(tpl.Params, v.params) {
					plan := v.plan
					if i > 0 { // move to front: MRU variant scans first
						copy(e.variants[1:i+1], e.variants[:i])
						e.variants[0] = v
					}
					e.mu.Unlock()
					if c.reg != nil {
						c.reg.Counter("robustqo_plancache_hits_total").Inc()
					}
					return plan, Hit, nil
				}
			}
			plan, err := c.tryRebind(env, e, q, tpl)
			e.mu.Unlock()
			if err != nil {
				return nil, Miss, err
			}
			if plan != nil {
				if c.reg != nil {
					c.reg.Counter("robustqo_plancache_rebinds_total").Inc()
				}
				return plan, Rebind, nil
			}
			// Interval or pruning reject: re-optimize for this binding and
			// retain it as a fresh variant alongside the existing ones.
			plan2, err := c.populate(env, q, tpl, key, gen)
			if c.reg != nil {
				c.reg.Counter("robustqo_plancache_rejects_total").Inc()
			}
			return plan2, Reject, err
		}
	}

	plan, err := c.populate(env, q, tpl, key, gen)
	if err != nil {
		return nil, Miss, err
	}
	if c.reg != nil {
		c.reg.Counter("robustqo_plancache_misses_total").Inc()
	}
	return plan, Miss, nil
}

// dropStale removes a stale-generation entry if it is still the one
// mapped at key.
func (c *Cache) dropStale(shard *cacheShard, key string, gen uint64) {
	shard.mu.Lock()
	if cur, ok := shard.entries[key]; ok {
		cur.mu.Lock()
		stale := cur.gen != gen
		cur.mu.Unlock()
		if stale {
			delete(shard.entries, key)
			for i, k := range shard.order {
				if k == key {
					shard.order = append(shard.order[:i], shard.order[i+1:]...)
					break
				}
			}
		}
	}
	shard.mu.Unlock()
}

// populate runs the cold path and installs the result as a new variant
// — prepended to the existing entry when one is live at key, or as a
// fresh entry otherwise.
func (c *Cache) populate(env Env, q *optimizer.Query, tpl *Template, key string, gen uint64) (*optimizer.Plan, error) {
	plan, err := env.Optimize(q)
	if err != nil {
		return nil, err
	}
	v, err := c.buildVariant(env, q, tpl, plan)
	if err != nil {
		// The plan itself is good; only interval recording failed.
		// Serve the plan uncached rather than failing the query.
		return plan, nil
	}
	shard := c.shardOf(key)
	shard.mu.Lock()
	if cur, exists := shard.entries[key]; exists {
		cur.mu.Lock()
		if cur.gen == gen {
			cur.variants = append(cur.variants, nil)
			copy(cur.variants[1:], cur.variants)
			cur.variants[0] = v
			if len(cur.variants) > maxVariants {
				cur.variants = cur.variants[:maxVariants]
			}
			cur.mu.Unlock()
			shard.mu.Unlock()
			return plan, nil
		}
		cur.mu.Unlock()
		// Stale generation: fall through and replace the entry.
	} else {
		for len(shard.order) >= c.perShed {
			victim := shard.order[0]
			shard.order = shard.order[1:]
			delete(shard.entries, victim)
			if c.reg != nil {
				c.reg.Counter("robustqo_plancache_evictions_total").Inc()
			}
		}
		shard.order = append(shard.order, key)
	}
	shard.entries[key] = &entry{tpl: tpl, variants: []*variant{v}, gen: gen}
	shard.mu.Unlock()
	return plan, nil
}

// buildVariant records the credible interval each slotted conjunct was
// planned under. This is plan-time (miss-path) work: the interval costs
// two posterior quantile inversions per conjunct, amortized by the
// estimator's QuantileCache.
func (c *Cache) buildVariant(env Env, q *optimizer.Query, tpl *Template, plan *optimizer.Plan) (*variant, error) {
	info, err := optimizer.AnalyzeBinding(env.Ctx, q)
	if err != nil {
		return nil, err
	}
	v := &variant{
		params:   append([]value.Value(nil), tpl.Params...),
		plan:     plan,
		partsKey: info.PartsKey,
	}
	v.conjStrs = make([]string, len(info.Conjuncts))
	for i, bc := range info.Conjuncts {
		v.conjStrs[i] = bc.Pred.String()
	}

	ie, ok := env.Est.(core.IntervalEstimator)
	if !ok {
		v.exactOnly = true
		return v, nil
	}
	slotted := make(map[int]bool, len(tpl.ConjunctOfSlot))
	for _, ci := range tpl.ConjunctOfSlot {
		slotted[ci] = true
	}
	for ci := range info.Conjuncts {
		if !slotted[ci] {
			continue
		}
		bc := info.Conjuncts[ci]
		if len(bc.Tables) == 0 {
			// A parameterized table-free term (e.g. a constant
			// comparison) has no estimable relation; only identical
			// re-bindings are safe.
			v.exactOnly = true
			return v, nil
		}
		lo, hi, err := ie.CredibleInterval(core.Request{
			Tables:     bc.Tables,
			Pred:       bc.Pred,
			Partitions: bc.Partitions,
		}, core.DefaultIntervalWidth)
		if err != nil {
			return nil, err
		}
		v.checks = append(v.checks, check{conjunct: ci, lo: lo, hi: hi})
	}
	return v, nil
}

// tryRebind attempts to serve q from one of e's variants under the
// credible-interval rule: the first variant (MRU order) whose pruning
// verdict matches and whose changed-conjunct point estimates stay inside
// their planning-time intervals is re-bound in place. Returns (nil, nil)
// when the binding must be re-optimized. Caller holds e.mu.
func (c *Cache) tryRebind(env Env, e *entry, q *optimizer.Query, tpl *Template) (*optimizer.Plan, error) {
	ie, ok := env.Est.(core.IntervalEstimator)
	if !ok {
		return nil, nil
	}
	var info *optimizer.BindInfo
	var intervalFail, pruningFail bool
	for _, v := range e.variants {
		if v.exactOnly || len(tpl.Params) != len(v.params) {
			continue
		}
		if info == nil { // shared across variants; computed at most once
			var err error
			info, err = optimizer.AnalyzeBinding(env.Ctx, q)
			if err != nil {
				return nil, err
			}
		}
		if info.PartsKey != v.partsKey {
			// The new literals change which shards survive pruning; this
			// variant's embedded partition lists are stale.
			pruningFail = true
			continue
		}
		if len(info.Conjuncts) != len(v.conjStrs) {
			continue
		}

		// Re-check only conjuncts whose slots actually changed: an
		// unchanged conjunct's estimate is bit-identical to plan time.
		changed := make(map[int]bool)
		for si, ci := range tpl.ConjunctOfSlot {
			if tpl.Params[si] != v.params[si] {
				changed[ci] = true
			}
		}
		inside := true
		for _, ck := range v.checks {
			if !changed[ck.conjunct] {
				continue
			}
			bc := info.Conjuncts[ck.conjunct]
			pe, err := ie.PointEstimate(core.Request{
				Tables:     bc.Tables,
				Pred:       bc.Pred,
				Partitions: bc.Partitions,
			})
			if err != nil {
				return nil, err
			}
			if pe < ck.lo || pe > ck.hi {
				intervalFail = true
				inside = false
				break
			}
		}
		if !inside {
			continue
		}

		// All checks passed: clone the plan tree with the new literals
		// and index ranges substituted in.
		newConj := make([]expr.Expr, len(info.Conjuncts))
		for i, bc := range info.Conjuncts {
			newConj[i] = bc.Pred
		}
		rw := conjunctRewriter(v.conjStrs, newConj)
		root, remap, err := engine.Rebind(v.plan.Root, engine.RebindOptions{
			Expr: rw,
			Range: func(table string, k engine.KeyRange) engine.KeyRange {
				if cols, ok := info.Ranges[table]; ok {
					if r, ok := cols[k.Column]; ok {
						return r
					}
				}
				return k
			},
		})
		if err != nil {
			return nil, err
		}
		plan := v.plan.Rebound(root, remap, info)

		// The variant now serves the new binding; the credible intervals
		// stay anchored at original plan time so drift accumulates
		// against the estimates the plan was actually costed under.
		v.params = append(v.params[:0], tpl.Params...)
		v.plan = plan
		for i, bc := range info.Conjuncts {
			v.conjStrs[i] = bc.Pred.String()
		}
		return plan, nil
	}
	// No variant accepted the binding. Count the dominant failure once
	// per call, not per variant.
	if c.reg != nil {
		switch {
		case intervalFail:
			c.reg.Counter("robustqo_plancache_interval_rejects_total").Inc()
		case pruningFail:
			c.reg.Counter("robustqo_plancache_pruning_rejects_total").Inc()
		}
	}
	return nil, nil
}

// conjunctRewriter maps a plan-embedded predicate (a conjunction of some
// subset of the old binding's conjuncts, in conjunct order — the shape
// the optimizer's predFor builds) to the same conjunction over the new
// binding's conjuncts. Terms are matched positionally by their rendered
// form, scanning forward, so duplicate shapes resolve in order.
func conjunctRewriter(oldStrs []string, newConj []expr.Expr) func(expr.Expr) expr.Expr {
	return func(old expr.Expr) expr.Expr {
		terms := expr.SplitConjuncts(old)
		out := make([]expr.Expr, len(terms))
		next := 0
		for i, t := range terms {
			s := t.String()
			found := -1
			for k := next; k < len(oldStrs); k++ {
				if oldStrs[k] == s {
					found = k
					break
				}
			}
			if found < 0 {
				for k := 0; k < next; k++ {
					if oldStrs[k] == s {
						found = k
						break
					}
				}
			}
			if found < 0 {
				out[i] = t
				continue
			}
			out[i] = newConj[found]
			next = found + 1
		}
		return expr.Conj(out...)
	}
}
