package plancache

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"robustqo/internal/catalog"
	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/obs"
	"robustqo/internal/optimizer"
	"robustqo/internal/value"
)

// numShards is the cache's lock-striping factor. Shard selection hashes
// the full key, so concurrent lookups of different statements rarely
// contend on the same mutex.
const numShards = 16

// Outcome classifies what a Plan call did.
type Outcome int

// Plan outcomes.
const (
	// Miss: no live entry held this exact binding; the plan was built by
	// a cold optimization and inserted.
	Miss Outcome = iota
	// Hit: a live entry held this exact binding; its plan was returned
	// with zero estimation work.
	Hit
)

func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	default:
		return "outcome(" + strconv.Itoa(int(o)) + ")"
	}
}

// Cached reports whether the outcome avoided a full optimization.
func (o Outcome) Cached() bool { return o == Hit }

// Env carries everything a Plan call needs from the serving layer: the
// execution context (catalog + partition layout), the estimator identity
// plans are built under, and the cold-path optimizer.
type Env struct {
	Ctx *engine.Context
	Est core.Estimator
	// Optimize is the cold path: build a fresh plan for q. Called on
	// every Miss.
	Optimize func(q *optimizer.Query) (*optimizer.Plan, error)
	// DOP is the parallelism the plan was (or will be) parallelized
	// for; it is part of the cache key because Exchange operators and
	// their placement are baked into the plan tree.
	DOP int
}

// entry is one cached plan and the binding it was optimized for. Entries
// are immutable once inserted, so a hit reads one without a lock.
type entry struct {
	params []value.Value
	plan   *optimizer.Plan
	gen    uint64
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
// reloaded. A stale entry is replaced by the next miss on its key or
// evicted in FIFO order. The partition layout does not need an explicit
// Invalidate — it is part of every key via optimizer.LayoutKey.
func (c *Cache) Invalidate() {
	c.gen.Add(1)
}

// Len returns the live entry count across shards (stale-generation
// entries not yet replaced or evicted included).
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

// fullKey composes the complete cache key: template shape × binding ×
// estimator identity (embeds the confidence threshold T) × DOP ×
// partition layout. The binding goes last and is encoded injectively —
// each value's kind, then its live payload as a fixed-width word (floats
// by bit pattern) or a length-prefixed string — so two bindings of one
// template share a key exactly when paramsEqual holds.
//
//qo:hotpath
func fullKey(tpl *Template, estName string, dop int, layout string) string {
	var b strings.Builder
	b.Grow(len(tpl.Key) + len(estName) + len(layout) + 9*len(tpl.Params) + 12)
	b.WriteString(tpl.Key)
	b.WriteByte(0x1f)
	b.WriteString(estName)
	b.WriteByte(0x1f)
	b.WriteString(strconv.Itoa(dop))
	b.WriteByte(0x1f)
	b.WriteString(layout)
	b.WriteByte(0x1f)
	var word [8]byte
	for _, p := range tpl.Params {
		b.WriteByte(byte(p.Kind))
		switch p.Kind {
		case catalog.Float:
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(p.F))
		case catalog.String:
			binary.LittleEndian.PutUint64(word[:], uint64(len(p.S)))
		default:
			binary.LittleEndian.PutUint64(word[:], uint64(p.I))
		}
		b.Write(word[:])
		if p.Kind == catalog.String {
			b.WriteString(p.S)
		}
	}
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

// paramsEqual reports whether two bindings are identical: kind for kind,
// and the live payload for each kind, floats by bit pattern (so −0 and
// +0 differ and a NaN equals itself) — exactly what fullKey encodes.
//
//qo:hotpath
func paramsEqual(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind {
			return false
		}
		var same bool
		switch a[i].Kind {
		case catalog.Float:
			same = math.Float64bits(a[i].F) == math.Float64bits(b[i].F)
		case catalog.String:
			same = a[i].S == b[i].S
		default:
			same = a[i].I == b[i].I
		}
		if !same {
			return false
		}
	}
	return true
}

// Plan returns an executable plan for q, consulting the cache first. An
// entry of the current generation under q's key whose binding equals
// q's literals is a Hit: its plan is returned with no estimation work.
// Anything else is a Miss: q is optimized cold and the plan inserted
// under FIFO eviction. Every served plan is therefore the plan a cold
// optimization built for exactly these literals (DESIGN.md §13).
func (c *Cache) Plan(env Env, q *optimizer.Query) (*optimizer.Plan, Outcome, error) {
	tpl := Normalize(q)
	key := fullKey(tpl, env.Est.Name(), env.DOP, optimizer.LayoutKey(env.Ctx))
	gen := c.gen.Load()
	shard := c.shardOf(key)

	shard.mu.RLock()
	e := shard.entries[key]
	shard.mu.RUnlock()
	if e != nil && e.gen == gen && paramsEqual(e.params, tpl.Params) {
		if c.reg != nil {
			c.reg.Counter("robustqo_plancache_hits_total").Inc()
		}
		return e.plan, Hit, nil
	}
	if e != nil && e.gen != gen && c.reg != nil {
		c.reg.Counter("robustqo_plancache_invalidations_total").Inc()
	}

	plan, err := env.Optimize(q)
	if err != nil {
		return nil, Miss, err
	}
	c.insert(shard, key, &entry{params: tpl.Params, plan: plan, gen: gen})
	if c.reg != nil {
		c.reg.Counter("robustqo_plancache_misses_total").Inc()
	}
	return plan, Miss, nil
}

// insert installs e at key. An entry already there (a stale generation,
// or a concurrent miss on the same key) is replaced in place; a new key
// first evicts the shard's oldest keys down to its bound.
func (c *Cache) insert(shard *cacheShard, key string, e *entry) {
	shard.mu.Lock()
	defer shard.mu.Unlock()
	if _, exists := shard.entries[key]; !exists {
		for len(shard.order) >= c.perShed {
			delete(shard.entries, shard.order[0])
			shard.order = shard.order[1:]
			if c.reg != nil {
				c.reg.Counter("robustqo_plancache_evictions_total").Inc()
			}
		}
		shard.order = append(shard.order, key)
	}
	shard.entries[key] = e
}
