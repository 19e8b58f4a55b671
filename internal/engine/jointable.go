package engine

// The hash-join build table: an int64 table of chains over build
// positions, sized from the drained build, built serially and then
// read-only.
//
// Every join key is an Int or Date column (joinKey enforces it at Open),
// so the table is keyed by the int64 payload alone: Int and Date keys
// with equal payloads match, as MergeJoin and INLJoin match them. The
// table indexes build positions — rows of the drained build vectors —
// and each key's chain of positions is threaded through a next-index
// array, so inserting N rows costs no per-key allocation and walking a
// chain yields the key's rows in build-input order. The build row count
// is known before the first insert, so the table is sized once and never
// grows. It takes one of two modes, fixed at build:
//
//   - direct-addressed, when the build keys span hi−lo+1 at most 4× the
//     open-addressed slot count (a foreign key joined to a dense primary
//     key): heads[k−lo] is key k's chain head, so a probe is one bounds
//     check and one load, and the []int32 heads array is never larger
//     than the 16-byte slots it replaces;
//   - hashed, for any other build: linear probing over slots at most half
//     full, indexed by the high bits of the key's mix64 hash.
//
// The probe loop picks its mode once per batch (hashJoinOp.probeInto).

// joinSlot is one slot of a hashed joinTable: a key and its chain of
// build positions, head first; head < 0 marks the slot empty.
type joinSlot struct {
	key        int64
	head, tail int32
}

// joinTable is the build side of a hash join. heads is non-nil exactly
// in the direct-addressed mode; slots and shift are set only in the
// hashed one.
type joinTable struct {
	// heads[k-lo] is the head build position of key k's chain, or -1.
	heads []int32
	lo    int64
	slots []joinSlot
	shift uint // 64 - log2(len(slots))
	// next[i] is the next build position sharing position i's key, or -1
	// at the end of a chain.
	next []int32
}

// buildJoinTable builds the join table over keys, the build side's key
// vector: position i has key keys[i].
func buildJoinTable(keys []int64) *joinTable {
	bits := uint(3)
	for 1<<bits < 2*len(keys) {
		bits++
	}
	t := &joinTable{next: make([]int32, len(keys))}
	if len(keys) > 0 {
		lo, hi := keys[0], keys[0]
		for _, k := range keys {
			lo, hi = min(lo, k), max(hi, k)
		}
		// hi-lo+1 <= 4<<bits, in uint64 so the full int64 range cannot
		// overflow.
		if uint64(hi)-uint64(lo) < 4<<bits {
			t.lo, t.heads = lo, make([]int32, uint64(hi)-uint64(lo)+1)
			for i := range t.heads {
				t.heads[i] = -1
			}
			// Prepending in reverse leaves each chain in build-input order.
			for i := len(keys) - 1; i >= 0; i-- {
				h := &t.heads[uint64(keys[i])-uint64(lo)]
				t.next[i], *h = *h, int32(i)
			}
			return t
		}
	}
	t.slots, t.shift = make([]joinSlot, 1<<bits), 64-bits
	for i := range t.slots {
		t.slots[i].head = -1
	}
	for i, k := range keys {
		t.next[i] = -1
		s := t.slot(k)
		if s.head < 0 {
			*s = joinSlot{key: k, head: int32(i), tail: int32(i)}
		} else {
			t.next[s.tail] = int32(i)
			s.tail = int32(i)
		}
	}
	return t
}

// dense reports whether the table is direct-addressed.
func (t *joinTable) dense() bool { return t.heads != nil }

// slot returns the slot of a hashed table holding key, or the empty slot
// where it would go.
//
//qo:hotpath
func (t *joinTable) slot(key int64) *joinSlot {
	mask := len(t.slots) - 1
	for i := int(mix64(uint64(key)) >> t.shift); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.head < 0 || s.key == key {
			return s
		}
	}
}

// first returns the head build position of key's chain in a hashed
// table, or -1 when no build row has that key. Continue with
// t.next[idx]; positions come out in build-input order. A
// direct-addressed table is read through heads instead: keeping the mode
// test out of first keeps first, and slot within it, inlined.
//
//qo:hotpath
func (t *joinTable) first(key int64) int32 {
	return t.slot(key).head
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixer for the slot hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
