package engine

// The hash-join build table: one open-addressed int64 table, chained,
// sized from the drained build, built serially and then read-only.
//
// Every join key is an Int or Date column (joinKey enforces it at Open),
// so the table is keyed by the int64 payload alone: Int and Date keys
// with equal payloads match, as MergeJoin and INLJoin match them. The
// table indexes build positions — rows of the drained build vectors —
// and each key's slot holds the head and tail of a chain of positions
// threaded through a next-index array, so inserting N rows costs no
// per-key allocation and walking a chain yields the key's rows in
// build-input order. The build row count is known before
// the first insert, so the table is sized once, at most half full, and
// never grows. Once built it is only read, so any number of morsel
// workers probe it at once.

// joinSlot is one slot of a joinTable: a key and its chain of build
// positions, head first; head < 0 marks the slot empty.
type joinSlot struct {
	key        int64
	head, tail int32
}

// joinTable is the build side of a hash join: linear probing over slots,
// indexed by the high bits of the key's mix64 hash.
type joinTable struct {
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
	t := &joinTable{
		slots: make([]joinSlot, 1<<bits),
		shift: 64 - bits,
		next:  make([]int32, len(keys)),
	}
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

// slot returns the slot holding key, or the empty slot where it would
// go.
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

// first returns the head build position of key's chain, or -1 when no
// build row has that key. Continue with t.next[idx]; positions come out
// in build-input order.
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
