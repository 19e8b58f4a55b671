package engine

// Encoded scan path: SeqScan over colstore compressed columnar segments.
//
// A SeqScan has two storage paths. ScanLate runs when a fresh encoding of
// the table is present and the filter has a non-empty pushable prefix
// (colstore.CompilePushdown ok); everything else — row mode, no or stale
// encoding, no pushable prefix — runs the filter-first row window
// (seqMorselWorker.rowWindow). No selectivity estimate takes part.
//
// The encoded path slots in under the SeqScan window worker: after
// charging a [next, end) row window the worker calls encScan.window
// instead of loading the window from the row store. It is counter
// transparent because it charges nothing itself — every window, also one
// inside a zone-skipped segment, has already been charged exactly what
// the row path charges. The saving is wall-clock (no decode, no residual
// evaluation on rows the encoded probes eliminate) and resident bytes,
// never simulated I/O.
//
// Semantics parity is structural. ScanLate evaluates the pushable prefix
// of the filter's conjuncts exactly on encoded data (expr.SplitPushdown
// guarantees exactness), then runs the bound residual on exactly the
// rows the row path's left-to-right And short-circuit would reach with
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
// encoding, compiled probes (non-empty, immutable, safe across workers),
// the unbound residual, and the column plan in which the residual is the
// predicate. Built once, in SeqScan.openMorsels.
type encScanSpec struct {
	enc    *colstore.TableEncoding
	probes []colstore.Probe
	// residual is the filter minus the pushed prefix; each consumer binds
	// its own copy.
	residual expr.Expr
	cols     *scanCols
	mScanned *obs.Counter
	mSkipped *obs.Counter
}

// prepareEncScan resolves a SeqScan's encoded path, returning nil when
// the scan must stay on the row path: row mode requested, no encodings
// in the context, the table missing from the set, the encoding stale
// (built at a different row count than the table currently has), or no
// pushable filter prefix. The stale case is a degraded path, so it is
// counted: robustqo_columnar_stale_fallback_total. full is the table's
// schema.
func prepareEncScan(ctx *Context, t *storage.Table, full expr.RelSchema, s *SeqScan) (*encScanSpec, error) {
	if s.Mode == ScanRows || ctx.Encodings == nil {
		return nil, nil
	}
	enc, ok := ctx.Encodings.For(s.Table)
	if !ok {
		return nil, nil
	}
	if enc.Rows() != t.NumRows() {
		if ctx.Metrics != nil {
			ctx.Metrics.Counter("robustqo_columnar_stale_fallback_total").Inc()
		}
		return nil, nil
	}
	probes, residual, ok := enc.CompilePushdown(s.Filter, full)
	if !ok {
		return nil, nil
	}
	cols, err := newScanCols(full, s.Emit, residual)
	if err != nil {
		return nil, err
	}
	spec := &encScanSpec{enc: enc, probes: probes, residual: residual, cols: cols}
	if ctx.Metrics != nil {
		spec.mScanned = ctx.Metrics.Counter("robustqo_columnar_segments_scanned_total")
		spec.mSkipped = ctx.Metrics.Counter("robustqo_columnar_segments_skipped_total")
	}
	return spec, nil
}

// encScan is one consumer's mutable scan state over a shared spec: the
// bound residual, selection-vector scratch, and the full-width columns
// the residual reads. One per window worker — never shared.
type encScan struct {
	spec     *encScanSpec
	residual *expr.Bound
	sel      []int
	sel2     []int
	// rows and fin are window-relative offsets: the rows surviving the
	// probes, and of those the rows surviving the residual.
	rows, fin []int
	scratch   [][]value.Value
	lastSeg   int
	segSkip   bool
}

// newState binds the residual for one consumer over the table schema full.
func (spec *encScanSpec) newState(full expr.RelSchema) (*encScan, error) {
	b, err := expr.Bind(spec.residual, full)
	if err != nil {
		return nil, err
	}
	return &encScan{spec: spec, residual: b, lastSeg: -1, scratch: make([][]value.Value, len(full.Fields))}, nil
}

// window appends the survivors of one row window [next, end) to out:
// skips or probes encoded segments, materializes the residual's columns
// for the probe survivors, applies the residual, and materializes the
// rest of the projection for its survivors only. The caller has already
// charged the window — windows inside zone-skipped segments included,
// since a row scan would read them.
//
//qo:hotpath
func (e *encScan) window(out *Batch, next, end int) error {
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
		src := rangeSel(e.sel, 0, stop-lo)
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
	if len(rows) == 0 {
		return nil
	}
	cols := spec.cols
	fin := rows
	if spec.residual != nil {
		for _, c := range cols.pred {
			e.scratch[c] = e.appendRows(e.scratch[c][:0], c, next, rows)
		}
		e.sel = rangeSel(e.sel, 0, len(rows))
		keep, err := e.residual.EvalBatch(e.scratch, e.sel)
		if err != nil {
			return err
		}
		cols.gatherPred(out, e.scratch, keep)
		fin = e.fin[:0]
		for _, k := range keep {
			fin = append(fin, rows[k])
		}
		e.fin = fin
	}
	for j, i := range cols.restOut {
		out.cols[i] = e.appendRows(out.cols[i], cols.rest[j], next, fin)
	}
	out.n += len(fin)
	return nil
}

// appendRows late-materializes column c for the window-relative offsets
// rows (ascending) of the window starting at global row winLo, one
// AppendColSel per encoded segment the rows fall in.
//
//qo:hotpath
func (e *encScan) appendRows(dst []value.Value, c, winLo int, rows []int) []value.Value {
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
