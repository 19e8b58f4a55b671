package engine

// Encoded scan path: SeqScan over colstore compressed columnar segments.
//
// A SeqScan window runs its filter first on both of its storage paths,
// through one storage.Filter: the filter's pushable prefix
// (expr.SplitPushdown) decides which rows of the window survive, and the
// residual runs on those rows alone (storage.Filter.EvalResidual) before
// the window loads the projection of its survivors. Only the prefix step
// differs. ScanLate, when a fresh encoding of the table is present and
// the filter has a non-empty pushable prefix, checks it on encoded data
// (encScan.prefix: zone-map segment skipping, then encoded-domain probes)
// and loads columns by late decoding; everything else — row mode, no or
// stale encoding — checks it on the row store's typed payloads
// (storage.Filter.Window) and loads columns from there. No selectivity
// estimate takes part.
//
// Both paths are counter transparent: the window worker charges a
// [next, end) window before either runs, and neither charges anything
// itself — so every window, also one inside a zone-skipped segment, is
// charged exactly the same. What the encoded path adds is wall-clock —
// zone skipping and probes over compressed data — never simulated I/O.
//
// Semantics parity is structural. The prefix is exact on either storage
// (expr.SplitPushdown pushes only comparisons value.Compare decides
// without error), and the bound residual then runs on exactly the rows
// the unsplit filter's left-to-right And short-circuit would reach with
// the prefix true — same rows, same order, same errors.

import (
	"slices"

	"robustqo/internal/colstore"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// ScanMode selects how a SeqScan reads table data.
type ScanMode int

const (
	// ScanRows is the default row-storage path.
	ScanRows ScanMode = iota
	// ScanLate probes encoded data first — zone-map segment skipping plus
	// encoded-domain predicate evaluation — and materializes only the
	// surviving rows before the residual filter runs. Without a fresh
	// encoding or a pushable filter prefix it runs the row path.
	ScanLate
)

func (m ScanMode) String() string {
	if m == ScanLate {
		return "late"
	}
	return "rows"
}

// encScanSpec is the cold, shareable half of an encoded scan: the table
// encoding and the compiled probes of the filter's pushed prefix
// (non-empty, immutable, safe across workers). Built once, in
// SeqScan.openMorsels.
type encScanSpec struct {
	enc      *colstore.TableEncoding
	probes   []colstore.Probe
	mScanned *obs.Counter
	mSkipped *obs.Counter
}

// prepareEncScan resolves a SeqScan's encoded path for the filter's
// pushed prefix bounds, returning nil when the scan must stay on the row
// path: row mode requested, no encodings in the context, the table
// missing from the set, the encoding stale (built at a different row
// count than the table currently has), or no pushable filter prefix. The
// stale case is a degraded path, so it is counted:
// robustqo_columnar_stale_fallback_total.
func prepareEncScan(ctx *Context, t *storage.Table, s *SeqScan, bounds []expr.ColBound) *encScanSpec {
	if s.Mode == ScanRows || ctx.Encodings == nil {
		return nil
	}
	enc, ok := ctx.Encodings.For(s.Table)
	if !ok {
		return nil
	}
	if enc.Rows() != t.NumRows() {
		if ctx.Metrics != nil {
			ctx.Metrics.Counter("robustqo_columnar_stale_fallback_total").Inc()
		}
		return nil
	}
	probes, ok := enc.CompilePushdown(bounds)
	if !ok {
		return nil
	}
	spec := &encScanSpec{enc: enc, probes: probes}
	if ctx.Metrics != nil {
		spec.mScanned = ctx.Metrics.Counter("robustqo_columnar_segments_scanned_total")
		spec.mSkipped = ctx.Metrics.Counter("robustqo_columnar_segments_skipped_total")
	}
	return spec
}

// encScan is one window worker's mutable prefix state over a shared
// spec: selection-vector scratch and the zone-map verdict of the segment
// it is in. Never shared.
type encScan struct {
	spec *encScanSpec
	sel  []int
	sel2 []int
	// rows are the window-relative offsets surviving the probes.
	rows    []int
	lastSeg int
	segSkip bool
}

// prefix returns the offsets from next of the rows of the window
// [next, end) that pass the probes: it skips the window's zone-skipped
// segments and probes the rest on encoded data. The caller has already
// charged the window — windows inside zone-skipped segments included,
// since a row scan would read them.
//
//qo:hotpath
func (e *encScan) prefix(next, end int) []int {
	spec := e.spec
	enc := spec.enc
	rows := e.rows[:0]
	for lo := next; lo < end; {
		si := enc.SegIndex(lo)
		stop := min(end, enc.Segment(si).Hi)
		if si != e.lastSeg {
			// First window inside this segment: settle the zone-map verdict
			// once and meter the segment exactly once per consumer.
			e.lastSeg = si
			e.segSkip = false
			for pi := range spec.probes {
				if spec.probes[pi].SkipSegment(si) {
					e.segSkip = true
					break
				}
			}
			if e.segSkip {
				if spec.mSkipped != nil {
					spec.mSkipped.Inc()
				}
			} else if spec.mScanned != nil {
				spec.mScanned.Inc()
			}
		}
		if e.segSkip {
			lo = stop
			continue
		}
		src := storage.RangeSel(e.sel, 0, stop-lo)
		e.sel = src
		dst := e.sel2
		for pi := range spec.probes {
			dst = spec.probes[pi].FilterWindow(si, lo, src, dst[:0])
			src, dst = dst, src
			if len(src) == 0 {
				break
			}
		}
		e.sel, e.sel2 = src, dst
		for _, s := range src {
			rows = append(rows, lo-next+s)
		}
		lo = stop
	}
	e.rows = rows
	return rows
}

// AppendColumnSel implements storage.ColumnSource: it late-materializes column c
// for the window-relative offsets rows (ascending) of the window starting
// at global row winLo, one AppendColSel per encoded segment the rows fall
// in.
//
//qo:hotpath
func (e *encScan) AppendColumnSel(dst []value.Value, c, winLo int, rows []int) []value.Value {
	enc := e.spec.enc
	dst = slices.Grow(dst, len(rows))
	for len(rows) > 0 {
		si := enc.SegIndex(winLo + rows[0])
		segEnd := enc.Segment(si).Hi - winLo
		n := 1
		for n < len(rows) && rows[n] < segEnd {
			n++
		}
		dst = enc.AppendColSel(dst, c, si, winLo, rows[:n])
		rows = rows[n:]
	}
	return dst
}
