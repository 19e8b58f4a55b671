package colstore

import (
	"math/bits"
	"sort"

	"robustqo/internal/catalog"
	"robustqo/internal/storage"
)

// Size accounting constants: what one encoded unit costs resident, used
// for the RawBytes/EncodedBytes comparison the compression gate checks.
const (
	numericCellBytes = 8  // one int64/float64 cell
	stringHeadBytes  = 16 // string header (pointer + length)
	runBytes         = 12 // one RLE run: int64 value + int32 end offset
	segMetaBytes     = 40 // per segment-column: zone map + ref/width/enc
)

// buildTable encodes every column of the table over shard-aligned
// SegmentRows segments.
func buildTable(t *storage.Table) *TableEncoding {
	e := &TableEncoding{name: t.Name(), rows: t.NumRows()}
	for p := 0; p < t.Partitions(); p++ {
		lo, hi := t.PartitionSpan(p)
		for s := lo; s < hi; s += SegmentRows {
			end := s + SegmentRows
			if end > hi {
				end = hi
			}
			e.segs = append(e.segs, Segment{Lo: s, Hi: end, Shard: p})
		}
	}
	schema := t.Schema()
	e.cols = make([]colEncoding, len(schema.Columns))
	for c := range schema.Columns {
		kind := schema.Columns[c].Type
		ce := &e.cols[c]
		ce.kind = kind
		ce.segs = make([]segColumn, len(e.segs))
		switch kind {
		case catalog.Int, catalog.Date:
			data := t.Ints(c)
			for si, seg := range e.segs {
				encodeIntSeg(&ce.segs[si], data[seg.Lo:seg.Hi])
				e.encodedBytes += intSegBytes(&ce.segs[si]) + segMetaBytes
			}
			e.rawBytes += int64(len(data)) * numericCellBytes
		case catalog.Float:
			data := t.Floats(c)
			for si, seg := range e.segs {
				sc := &ce.segs[si]
				sc.enc = encRaw
				sc.floats = data[seg.Lo:seg.Hi]
				e.encodedBytes += int64(seg.Rows()) * numericCellBytes
			}
			e.rawBytes += int64(len(data)) * numericCellBytes
		case catalog.String:
			data := t.Strings(c)
			codes := buildDict(ce, data)
			for si, seg := range e.segs {
				encodeDictSeg(ce, &ce.segs[si], codes[seg.Lo:seg.Hi])
				e.encodedBytes += int64(len(ce.segs[si].words))*numericCellBytes + segMetaBytes
			}
			for _, s := range ce.dict {
				e.encodedBytes += stringHeadBytes + int64(len(s))
			}
			for _, s := range data {
				e.rawBytes += stringHeadBytes + int64(len(s))
			}
		}
	}
	return e
}

// encodeIntSeg picks the cheaper of run-length and frame-of-reference +
// bit-packing for one Int/Date segment and fills sc.
func encodeIntSeg(sc *segColumn, vals []int64) {
	if len(vals) == 0 {
		sc.enc = encPacked
		return
	}
	mn, mx := vals[0], vals[0]
	runs := 1
	for i := 1; i < len(vals); i++ {
		v := vals[i]
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		if v != vals[i-1] {
			runs++
		}
	}
	sc.zone = ZoneMap{Min: mn, Max: mx}
	width := bitsFor(uint64(mx) - uint64(mn))
	packedBytes := packedWordLen(len(vals), width) * numericCellBytes
	if int64(runs)*runBytes < int64(packedBytes) {
		sc.enc = encRLE
		sc.runVals = make([]int64, 0, runs)
		sc.runEnds = make([]int32, 0, runs)
		for i := 0; i < len(vals); {
			j := i + 1
			for j < len(vals) && vals[j] == vals[i] {
				j++
			}
			sc.runVals = append(sc.runVals, vals[i])
			sc.runEnds = append(sc.runEnds, int32(j))
			i = j
		}
		sc.zone.DistinctHint = runs
		return
	}
	sc.enc = encPacked
	sc.ref = mn
	sc.width = width
	sc.words = packWords(vals, mn, width)
}

// buildDict collects the column's table-wide sorted dictionary into ce
// and returns the per-row codes.
func buildDict(ce *colEncoding, data []string) []int64 {
	sorted := append([]string(nil), data...)
	sort.Strings(sorted)
	for _, s := range sorted {
		if len(ce.dict) == 0 || s != ce.dict[len(ce.dict)-1] {
			ce.dict = append(ce.dict, s)
		}
	}
	code := make(map[string]int64, len(ce.dict))
	for i, s := range ce.dict {
		code[s] = int64(i)
	}
	codes := make([]int64, len(data))
	for i, s := range data {
		codes[i] = code[s]
	}
	return codes
}

// encodeDictSeg bit-packs one segment's dictionary codes; the zone map
// is in code space, which the sorted dictionary makes order-preserving.
func encodeDictSeg(ce *colEncoding, sc *segColumn, codes []int64) {
	sc.enc = encDict
	if len(codes) == 0 {
		return
	}
	mn, mx := codes[0], codes[0]
	for _, c := range codes[1:] {
		if c < mn {
			mn = c
		}
		if c > mx {
			mx = c
		}
	}
	sc.zone = ZoneMap{Min: mn, Max: mx, DistinctHint: int(mx - mn + 1)}
	// Codes pack from zero (ref stays 0) at the width of the full
	// dictionary, so a code means the same string in every segment.
	sc.width = bitsFor(uint64(len(ce.dict) - 1))
	sc.words = packWords(codes, 0, sc.width)
}

func intSegBytes(sc *segColumn) int64 {
	if sc.enc == encRLE {
		return int64(len(sc.runVals)) * runBytes
	}
	return int64(len(sc.words)) * numericCellBytes
}

// bitsFor returns the bit width needed to represent delta.
func bitsFor(delta uint64) uint8 { return uint8(bits.Len64(delta)) }

// packedWordLen returns the word count packing n values at width bits.
func packedWordLen(n int, width uint8) int {
	return (n*int(width) + 63) / 64
}

// packWords frame-of-reference encodes vals against ref and packs the
// codes at width bits, little-endian within and across words. Width 0
// (a constant segment) packs to no words at all.
func packWords(vals []int64, ref int64, width uint8) []uint64 {
	if width == 0 {
		return nil
	}
	words := make([]uint64, packedWordLen(len(vals), width))
	for i, v := range vals {
		code := uint64(v) - uint64(ref)
		bit := i * int(width)
		w, off := bit>>6, uint(bit&63)
		words[w] |= code << off
		if off+uint(width) > 64 {
			words[w+1] = code >> (64 - off)
		}
	}
	return words
}

// unpack extracts the i-th width-bit code. The inverse of packWords;
// width must be the packing width and nonzero.
//
//qo:hotpath
func unpack(words []uint64, i int, width uint8) uint64 {
	bit := i * int(width)
	w, off := bit>>6, uint(bit&63)
	v := words[w] >> off
	if off+uint(width) > 64 {
		v |= words[w+1] << (64 - off)
	}
	if width >= 64 {
		return v
	}
	return v & (uint64(1)<<width - 1)
}
