package colstore

import (
	"robustqo/internal/catalog"
	"robustqo/internal/value"
)

// Decode kernel. It appends value.Values identical to what
// storage.Table.Value returns for the same rows, which is what the codec
// tests and fuzz round-trips compare: no closures, no boxing, no per-call
// allocation beyond growing the caller's destination.

// AppendColSel decodes column c for the selected rows of a
// window inside segment si: sel holds ascending offsets relative to
// global row id winLo, and winLo+sel[i] must lie inside the segment.
//
//qo:hotpath
func (e *TableEncoding) AppendColSel(dst []value.Value, c, si, winLo int, sel []int) []value.Value {
	ce := &e.cols[c]
	sc := &ce.segs[si]
	base := winLo - e.segs[si].Lo
	kind := ce.kind
	switch sc.enc {
	case encRaw:
		for _, s := range sel {
			dst = append(dst, value.Value{Kind: catalog.Float, F: sc.floats[base+s]})
		}
	case encPacked:
		if sc.width == 0 {
			for range sel {
				dst = append(dst, value.Value{Kind: kind, I: sc.ref})
			}
		} else {
			for _, s := range sel {
				dst = append(dst, value.Value{Kind: kind, I: sc.ref + int64(unpack(sc.words, base+s, sc.width))})
			}
		}
	case encRLE:
		if len(sel) == 0 {
			return dst
		}
		ri := runIndex(sc.runEnds, base+sel[0])
		for _, s := range sel {
			for int32(base+s) >= sc.runEnds[ri] {
				ri++
			}
			dst = append(dst, value.Value{Kind: kind, I: sc.runVals[ri]})
		}
	case encDict:
		if sc.width == 0 {
			for range sel {
				dst = append(dst, value.Value{Kind: catalog.String, S: ce.dict[0]})
			}
		} else {
			for _, s := range sel {
				dst = append(dst, value.Value{Kind: catalog.String, S: ce.dict[unpack(sc.words, base+s, sc.width)]})
			}
		}
	}
	return dst
}

// runIndex returns the index of the run containing segment-relative
// offset pos: the first run whose exclusive end exceeds pos. Hand-rolled
// binary search — sort.Search would allocate a closure on the hot path.
//
//qo:hotpath
func runIndex(runEnds []int32, pos int) int {
	lo, hi := 0, len(runEnds)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(runEnds[mid]) <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
