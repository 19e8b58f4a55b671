package engine

// The hash-join build table: partitioned, type-specialized, chained, and
// sized from the drained build.
//
// Four properties matter and each is pinned by a test:
//
//   - Type specialization. value.Value keys fall into exactly three key
//     classes — string, float64, and int64 (Int, Date, and everything
//     else share the I payload, mirroring value.Key) — so each partition
//     keeps one native-keyed table per class and probes never box a key
//     into an interface. Key equality is exactly the old map[any]
//     table's: Int and Date share the int64 class, floats compare as
//     float64 map keys (NaN matches nothing, -0 equals +0), numeric keys
//     never match strings. The int64 class — every FK key — is an
//     open-addressed table; the float64 and string classes are Go maps.
//   - Chained storage. Rows live once in a flat build-order slice; each
//     key maps to a (head, tail) chain threaded through a next-index
//     array. Inserting N rows costs zero per-key slice allocations, and
//     walking a chain yields the key's rows in build-input order — the
//     order the per-key slices used to preserve.
//   - Partitioning. The table is split into a power-of-two number of
//     partitions by a hash of the key, so a parallel build can scatter
//     row indices morsel-by-morsel and then let each worker own whole
//     partitions, lock-free: a partition's chains only ever touch next[]
//     slots of its own rows. Equal keys always land in the same
//     partition, so the partition count can never change join output.
//   - Exact sizing. A partition's row count is known before its first
//     insert, so the int64 class is sized once from it, at most half
//     full, and never grows; the maps get it as their size hint.

import (
	"math"
	"sync"
	"sync/atomic"

	"robustqo/internal/catalog"
	"robustqo/internal/obs"
	"robustqo/internal/value"
)

// joinPartitionThreshold is the build size below which a parallel
// partitioned build is not worth its scatter pass; smaller builds insert
// serially even when the join runs at DOP > 1.
const joinPartitionThreshold = 2 * MorselSize

// joinChain is one key's row list: indices into joinTable.rows threaded
// through joinTable.next, walked head-first in build-input order.
type joinChain struct {
	head, tail int32
}

// joinPart is one partition of a joinTable: one chain table per key
// class, each created at its first insert and sized from rows, the
// partition's build row count. A build column is homogeneous in
// practice, so usually exactly one of the three exists.
type joinPart struct {
	ints intChains
	flts map[float64]joinChain
	strs map[string]joinChain
	rows int
}

// intChains is the int64 key class of a partition: an open-addressed
// table with linear probing, indexed by the high bits of the key's mix64
// hash — the low bits pick the partition.
type intChains struct {
	slots []intSlot
	shift uint // 64 - log2(len(slots))
}

// intSlot is one slot of an intChains table; chain.head < 0 marks it
// empty.
type intSlot struct {
	key   int64
	chain joinChain
}

// newIntChains returns an empty table with at least twice n slots.
func newIntChains(n int) intChains {
	bits := uint(3)
	for 1<<bits < 2*n {
		bits++
	}
	slots := make([]intSlot, 1<<bits)
	for i := range slots {
		slots[i].chain.head = -1
	}
	return intChains{slots: slots, shift: 64 - bits}
}

// slot returns the slot holding key, or the empty slot where it would
// go; h is mix64 of the key.
//
//qo:hotpath
func (c *intChains) slot(key int64, h uint64) *intSlot {
	mask := len(c.slots) - 1
	for i := int(h >> c.shift); ; i = (i + 1) & mask {
		if s := &c.slots[i]; s.chain.head < 0 || s.key == key {
			return s
		}
	}
}

// joinTable is the build side of a hash join. Built once (serially or by
// a partitioned worker pool), then read-only: lookups are safe from any
// number of goroutines.
type joinTable struct {
	parts []joinPart
	mask  uint64 // len(parts)-1; 0 means unpartitioned
	// rows holds every build row in input order; next[i] is the index of
	// the next row sharing row i's key, or -1 at the end of a chain.
	rows []value.Row
	next []int32
}

// newJoinTable returns an empty table with nParts partitions (a power of
// two).
func newJoinTable(nParts int) *joinTable {
	if nParts < 1 {
		nParts = 1
	}
	return &joinTable{parts: make([]joinPart, nParts), mask: uint64(nParts - 1)}
}

// insert links row index i (whose key is v) onto its chain in partition
// p. A class's table allocates once per partition, at its first insert,
// not per row; the chains themselves live in the shared next array.
//
//qo:hotpath
func (p *joinPart) insert(t *joinTable, v value.Value, i int32) {
	switch v.Kind {
	case catalog.String:
		if p.strs == nil {
			p.strs = make(map[string]joinChain, p.rows)
		}
		if c, ok := p.strs[v.S]; ok {
			t.next[c.tail] = i
			c.tail = i
			p.strs[v.S] = c
		} else {
			p.strs[v.S] = joinChain{head: i, tail: i}
		}
	case catalog.Float:
		if p.flts == nil {
			p.flts = make(map[float64]joinChain, p.rows)
		}
		if c, ok := p.flts[v.F]; ok {
			t.next[c.tail] = i
			c.tail = i
			p.flts[v.F] = c
		} else {
			p.flts[v.F] = joinChain{head: i, tail: i}
		}
	default:
		if p.ints.slots == nil {
			//qo:alloc-ok once per partition, sized from its row count
			p.ints = newIntChains(p.rows)
		}
		s := p.ints.slot(v.I, mix64(uint64(v.I)))
		if s.chain.head < 0 {
			*s = intSlot{key: v.I, chain: joinChain{head: i, tail: i}}
		} else {
			t.next[s.chain.tail] = i
			s.chain.tail = i
		}
	}
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixer for the partition hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv64str hashes a string key for partitioning (FNV-1a).
func fnv64str(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// partIndex maps a key to its partition. Values that compare equal as map
// keys must hash equally: -0 and +0 are the same float64 map key, so they
// are folded before hashing. (NaN never equals anything, so any partition
// is correct for it.)
//
//qo:hotpath
func (t *joinTable) partIndex(v value.Value) int {
	if t.mask == 0 {
		return 0
	}
	var h uint64
	switch v.Kind {
	case catalog.String:
		h = fnv64str(v.S)
	case catalog.Float:
		f := v.F
		if f == 0 {
			f = 0
		}
		h = mix64(math.Float64bits(f))
	default:
		h = mix64(uint64(v.I))
	}
	return int(h & t.mask)
}

// first returns the head row index of v's chain, or -1 when no build row
// has that key. Continue with t.next[idx]; rows come out in build-input
// order.
//
//qo:hotpath
func (t *joinTable) first(v value.Value) int32 {
	switch v.Kind {
	case catalog.String:
		if c, ok := t.parts[t.partIndex(v)].strs[v.S]; ok {
			return c.head
		}
	case catalog.Float:
		if c, ok := t.parts[t.partIndex(v)].flts[v.F]; ok {
			return c.head
		}
	default:
		h := mix64(uint64(v.I))
		if p := &t.parts[h&t.mask]; p.ints.slots != nil {
			return p.ints.slot(v.I, h).chain.head
		}
	}
	return -1
}

// recordMetrics counts the build, and whether it was partitioned. Nil
// registries cost nothing, so hand-built plans and tests run unmetered.
func (t *joinTable) recordMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("robustqo_hashjoin_builds_total").Inc()
	if len(t.parts) > 1 {
		reg.Counter("robustqo_hashjoin_parallel_builds_total").Inc()
	}
}

// buildJoinTable builds the join table over buildRows keyed by column
// bIdx. dop > 1 partitions
// the build across a worker pool once it is large enough to pay for the
// scatter pass. The resulting table is identical — same keys, same
// per-key chain order — whichever path built it.
func buildJoinTable(buildRows []value.Row, bIdx int, dop int) *joinTable {
	if dop > 1 && len(buildRows) >= joinPartitionThreshold {
		return buildJoinTableParallel(buildRows, bIdx, dop)
	}
	t := newJoinTable(1)
	t.rows = buildRows
	t.next = newChainArray(len(buildRows))
	p := &t.parts[0]
	p.rows = len(buildRows)
	for i, r := range buildRows {
		p.insert(t, r[bIdx], int32(i))
	}
	return t
}

// newChainArray returns a next-index array with every slot at -1 (end of
// chain).
func newChainArray(n int) []int32 {
	next := make([]int32, n)
	for i := range next {
		next[i] = -1
	}
	return next
}

// buildJoinTableParallel partitions the build across dop workers in two
// phases. Phase 1 (scatter): workers claim fixed-size morsels of the
// build rows off an atomic counter and bucket each morsel's row indices
// by partition into a per-morsel slot — every slot is written by exactly
// one worker, so the phase is lock-free. Phase 2 (build): workers claim
// whole partitions off a second counter; the owning worker walks the
// morsel slots in order, counting its partition's rows to size the
// partition's tables, then chaining them in. A chain only ever writes next[] slots of rows in
// its own partition, so the phase is lock-free too, and walking morsels
// in order preserves build-input order per key — which is what keeps
// parallel join output byte-identical to serial.
//
// The workers charge no counters: the build work is the serial operator's
// HashBuilds charge, which the coordinator applies once, outside this
// function — exactly as the serial Open does.
func buildJoinTableParallel(buildRows []value.Row, bIdx int, dop int) *joinTable {
	nParts := 1
	for nParts < dop {
		nParts <<= 1
	}
	t := newJoinTable(nParts)
	t.rows = buildRows
	t.next = newChainArray(len(buildRows))
	nMorsels := (len(buildRows) + MorselSize - 1) / MorselSize
	scattered := make([][][]int32, nMorsels)
	var claim atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(dop, nMorsels); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m := int(claim.Add(1)) - 1
				if m >= nMorsels {
					return
				}
				lo := m * MorselSize
				hi := min(lo+MorselSize, len(buildRows))
				buckets := make([][]int32, nParts)
				for i := lo; i < hi; i++ {
					p := t.partIndex(buildRows[i][bIdx])
					buckets[p] = append(buckets[p], int32(i))
				}
				scattered[m] = buckets
			}
		}()
	}
	wg.Wait()
	var pclaim atomic.Int64
	for w := 0; w < min(dop, nParts); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pi := int(pclaim.Add(1)) - 1
				if pi >= nParts {
					return
				}
				part := &t.parts[pi]
				for m := 0; m < nMorsels; m++ {
					part.rows += len(scattered[m][pi])
				}
				for m := 0; m < nMorsels; m++ {
					for _, i := range scattered[m][pi] {
						part.insert(t, buildRows[i][bIdx], i)
					}
				}
			}
		}()
	}
	wg.Wait()
	return t
}
