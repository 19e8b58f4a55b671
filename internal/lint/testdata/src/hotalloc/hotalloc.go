// Package hotalloc exercises the hotalloc analyzer: //qo:hotpath
// functions are denied allocation-introducing constructs unless waived
// with //qo:alloc-ok reason.
package hotalloc

import "fmt"

type row []int

type batch struct {
	cols [][]int
	sel  []int
}

// hotClean appends into pre-sized pooled storage only.
//
//qo:hotpath
func hotClean(b *batch, rows []row) {
	for _, r := range rows {
		for c, v := range r {
			b.cols[c] = append(b.cols[c], v)
		}
	}
}

//qo:hotpath
func hotFmt(n int) error {
	if n < 0 {
		return fmt.Errorf("bad %d", n) // want "fmt.Errorf allocates"
	}
	return nil
}

//qo:hotpath
func hotWaivedFmt(n int) error {
	if n < 0 {
		//qo:alloc-ok error path, cold
		return fmt.Errorf("bad %d", n)
	}
	return nil
}

//qo:hotpath
func hotClosure(xs []int) int {
	f := func(a int) int { return a + 1 } // want "closure allocation"
	return f(xs[0])
}

//qo:hotpath
func hotMakeInLoop(rows []row) []row {
	out := make([]row, 0, len(rows)) // setup outside loops: tolerated
	for _, r := range rows {
		c := make(row, len(r)) // want "make inside a loop"
		copy(c, r)
		out = append(out, c)
	}
	return out
}

//qo:hotpath
func hotAppendUnpresized(rows []row) []row {
	var out []row
	for _, r := range rows {
		out = append(out, r) // want "never pre-sized"
	}
	return out
}

//qo:hotpath
func hotAppendPresized(b *batch, n int) {
	sel := b.sel[:0] // aliases pre-sized pooled storage: tolerated
	for i := 0; i < n; i++ {
		sel = append(sel, i)
	}
	b.sel = sel
}

//qo:hotpath
func hotBoxing(v int) {
	observe(v) // want "boxes a concrete int"
}

func observe(v any) { _ = v }

//qo:hotpath
func hotPointerLitInLoop(n int) *batch {
	var last *batch
	for i := 0; i < n; i++ {
		last = &batch{} // want "heap-allocated composite literal"
	}
	return last
}

//qo:hotpath
func hotSuppressed(n int) error {
	//qolint:allow-hotalloc
	return fmt.Errorf("bad %d", n)
}

// hotCacheLookup pins the plan-cache hit-path idiom: inline FNV-1a
// over the key, a map probe, and a positional parameter comparison —
// no hashing objects, no closures, no per-call allocation.
//
//qo:hotpath
func hotCacheLookup(entries map[string][]int, key string, params []int) ([]int, bool) {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	cached, ok := entries[key]
	if !ok || len(cached) != len(params) {
		return nil, false
	}
	for i := range cached {
		if cached[i] != params[i] {
			return nil, false
		}
	}
	return cached, h != 0
}

// hotProbeFilter pins the bit-unpacking kernel idiom of the columnar
// codec: unpack bit-packed words inline (shift/mask, spill across word
// boundaries), reconstruct frame-of-reference values, and append the
// surviving offsets into a selection vector aliasing pre-sized pooled
// storage — no closures, no per-window allocation.
//
//qo:hotpath
func hotProbeFilter(words []uint64, width uint, ref, lo, hi int64, sel, out []int) []int {
	out = out[:0]
	mask := uint64(1)<<width - 1
	for _, r := range sel {
		bit := uint(r) * width
		w, off := bit>>6, bit&63
		raw := words[w] >> off
		if off+width > 64 {
			raw |= words[w+1] << (64 - off)
		}
		if v := ref + int64(raw&mask); v >= lo && v <= hi {
			out = append(out, r)
		}
	}
	return out
}

// hotRunIndex pins the RLE run-lookup idiom: a hand-rolled first-end-
// exceeding-pos binary search — no sort.Search closure on the hot path.
//
//qo:hotpath
func hotRunIndex(runEnds []int32, pos int32) int {
	lo, hi := 0, len(runEnds)
	for lo < hi {
		mid := (lo + hi) / 2
		if runEnds[mid] <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// coldAlloc is unannotated: it may allocate freely.
func coldAlloc(rows []row) []row {
	var out []row
	for _, r := range rows {
		out = append(out, append(row(nil), r...))
	}
	return out
}

func badWaiver(n int) int {
	//qo:alloc-ok // want "must carry a reason"
	return n
}
