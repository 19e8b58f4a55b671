package colstore

import (
	"sort"

	"robustqo/internal/catalog"
	"robustqo/internal/expr"
)

// CompilePushdown compiles a scan filter's pushable prefix — the bounds
// expr.SplitPushdown returns — into probes over this encoding, one per
// bound. ok is false, and no probe is returned, when there is no prefix
// or some bound cannot be probed on encoded data; the caller then checks
// the prefix on decoded rows.
func (e *TableEncoding) CompilePushdown(bounds []expr.ColBound) (probes []Probe, ok bool) {
	if len(bounds) == 0 {
		return nil, false
	}
	probes = make([]Probe, 0, len(bounds))
	for _, b := range bounds {
		pr, ok := e.CompileProbe(b)
		if !ok {
			return nil, false
		}
		probes = append(probes, pr)
	}
	return probes, true
}

// Probe is a compiled encoded-data predicate: a closed interval in the
// column's encoded order domain (values for Int/Date, dictionary codes
// for String). Probes are immutable after compilation and safe to share
// across scan workers.
type Probe struct {
	e     *TableEncoding
	col   int
	lo    int64
	hi    int64
	empty bool
}

// CompileProbe translates one expr.SplitPushdown bound (a closed interval
// over a table column ordinal; for strings, each side gated by its Has
// flag) into encoded domain terms. ok is false when the column cannot be
// probed on encoded data (Float columns, or a kind mismatch between bound
// and column); such bounds must stay in the row-domain residual predicate.
func (e *TableEncoding) CompileProbe(p expr.ColBound) (Probe, bool) {
	if p.Col < 0 || p.Col >= len(e.cols) {
		return Probe{}, false
	}
	ce := &e.cols[p.Col]
	if ce.kind == catalog.Float || p.IsStr != (ce.kind == catalog.String) {
		return Probe{}, false
	}
	pr := Probe{e: e, col: p.Col}
	if !p.IsStr {
		pr.lo, pr.hi = p.Lo, p.Hi
		pr.empty = pr.lo > pr.hi
		return pr, true
	}
	// Map the string interval to dictionary-code space: the dictionary is
	// sorted, so [first code >= StrLo, last code <= StrHi] selects exactly
	// the dictionary entries inside the string interval. Strings absent
	// from the dictionary are absent from the column, so an empty code
	// interval proves the predicate selects nothing anywhere.
	lo := int64(0)
	if p.HasStrLo {
		lo = int64(sort.SearchStrings(ce.dict, p.StrLo))
	}
	hi := int64(len(ce.dict) - 1)
	if p.HasStrHi {
		hi = int64(sort.Search(len(ce.dict), func(i int) bool { return ce.dict[i] > p.StrHi })) - 1
	}
	pr.lo, pr.hi = lo, hi
	pr.empty = lo > hi
	return pr, true
}

// SkipSegment reports whether the segment's zone map proves no row can
// satisfy the probe. Called once per segment, off the per-row path.
func (p Probe) SkipSegment(si int) bool {
	if p.empty {
		return true
	}
	sc := &p.e.cols[p.col].segs[si]
	if sc.enc == encRaw {
		return false
	}
	return sc.zone.Max < p.lo || sc.zone.Min > p.hi
}

// FilterWindow evaluates the probe over the encoded data of one batch
// window without decoding: sel holds ascending row offsets relative to
// global row id winLo (all inside segment si), and surviving offsets are
// appended to out (reset by the caller) and returned. The evaluation is
// exact — the result equals row-domain evaluation of the source bound —
// which is what lets the residual predicate run only on survivors while
// preserving the row path's semantics.
//
//qo:hotpath
func (p Probe) FilterWindow(si, winLo int, sel, out []int) []int {
	if p.empty {
		return out
	}
	sc := &p.e.cols[p.col].segs[si]
	base := winLo - p.e.segs[si].Lo
	lo, hi := p.lo, p.hi
	switch sc.enc {
	case encPacked, encDict:
		ref := sc.ref
		if sc.width == 0 {
			// Constant segment: one comparison decides every row.
			if ref >= lo && ref <= hi {
				out = append(out, sel...)
			}
			break
		}
		for _, s := range sel {
			v := ref + int64(unpack(sc.words, base+s, sc.width))
			if v >= lo && v <= hi {
				out = append(out, s)
			}
		}
	case encRLE:
		if len(sel) == 0 {
			break
		}
		ri := runIndex(sc.runEnds, base+sel[0])
		for _, s := range sel {
			for int32(base+s) >= sc.runEnds[ri] {
				ri++
			}
			v := sc.runVals[ri]
			if v >= lo && v <= hi {
				out = append(out, s)
			}
		}
	}
	return out
}
