// Package colstore provides compressed columnar segment encodings of the
// storage layer's tables: per-segment dictionary, run-length, and
// frame-of-reference + bit-packed column representations with zone maps
// (min/max/null-count/distinct-hint) per segment and column.
//
// Segments tile each partition shard's contiguous row-id span in
// SegmentRows blocks starting at the shard base — the storage layer's
// zone-map tiling — so partitioned layouts compose unchanged.
//
// The encodings are a read-only image built from (and checked against)
// the authoritative row storage; an encoding records the row count it
// was built at. No scan reads them: the engine scans the row store,
// whose own zone maps skip tiles. They measure what the tables would
// occupy compressed.
package colstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"robustqo/internal/catalog"
	"robustqo/internal/storage"
)

// SegmentRows is the row span one segment covers: the storage layer's
// zone-map tile, so segments and tiles coincide.
const SegmentRows = storage.SegmentRows

// Segment is one encoded block: the half-open global row-id span
// [Lo, Hi) and the partition shard the span was tiled from.
type Segment struct {
	Lo, Hi int
	Shard  int
}

// Rows returns the segment's row count.
func (s Segment) Rows() int { return s.Hi - s.Lo }

// ZoneMap summarizes one column over one segment. Min/Max are in the
// value domain for Int and Date columns and in dictionary-code space for
// String columns (the dictionary is sorted, so code order is value
// order). NullCount is always zero — the storage layer has no NULLs —
// and is kept so the zone format matches what a nullable layout needs.
// DistinctHint is a cheap upper-bound style hint: run count for RLE
// segments, code span for dictionary segments, 0 when unknown.
type ZoneMap struct {
	Min, Max     int64
	NullCount    int
	DistinctHint int
}

// encKind selects the physical representation of one segment-column.
type encKind uint8

const (
	// encRaw aliases the table's float payload; Float columns are stored
	// uncompressed (they neither dictionary- nor delta-encode usefully
	// here) and carry no zone map.
	encRaw encKind = iota
	// encPacked is frame-of-reference + bit-packing: value = ref + code,
	// codes packed at a fixed bit width.
	encPacked
	// encRLE is run-length encoding: runVals[i] repeats until row offset
	// runEnds[i].
	encRLE
	// encDict is bit-packed codes into the column's table-wide sorted
	// dictionary.
	encDict
)

// segColumn is the encoded payload of one column over one segment.
type segColumn struct {
	enc  encKind
	zone ZoneMap
	// encPacked / encDict payload.
	ref   int64
	width uint8
	words []uint64
	// encRLE payload: runEnds are exclusive end offsets within the
	// segment (a prefix-sum of run lengths), parallel to runVals.
	runVals []int64
	runEnds []int32
	// encRaw payload.
	floats []float64
}

// colEncoding is one column across all segments.
type colEncoding struct {
	kind catalog.Type
	// dict is the table-wide sorted dictionary of a String column.
	dict []string
	segs []segColumn
}

// TableEncoding is the compressed columnar image of one table at a
// moment in time.
type TableEncoding struct {
	name string
	rows int
	segs []Segment
	cols []colEncoding

	encodedBytes int64
	rawBytes     int64
}

// Name returns the encoded table's name.
func (e *TableEncoding) Name() string { return e.name }

// Rows returns the row count the encoding was built at; consumers
// compare it against the table's current count to detect staleness.
func (e *TableEncoding) Rows() int { return e.rows }

// NumSegments returns the segment count.
func (e *TableEncoding) NumSegments() int { return len(e.segs) }

// Segment returns segment i's row span.
func (e *TableEncoding) Segment(i int) Segment { return e.segs[i] }

// NumCols returns the column count.
func (e *TableEncoding) NumCols() int { return len(e.cols) }

// Dict returns the table-wide sorted dictionary of a String column, or
// nil for other column types. Callers must not modify it.
func (e *TableEncoding) Dict(c int) []string { return e.cols[c].dict }

// Zone returns the zone map of column c over segment si; ok is false
// for raw (Float) segment-columns, which carry no zones.
func (e *TableEncoding) Zone(c, si int) (ZoneMap, bool) {
	sc := &e.cols[c].segs[si]
	if sc.enc == encRaw {
		return ZoneMap{}, false
	}
	return sc.zone, true
}

// EncodedBytes returns the resident size of the encoded representation:
// packed words, run lists, dictionaries, raw float payloads, and zone
// maps.
func (e *TableEncoding) EncodedBytes() int64 { return e.encodedBytes }

// RawBytes returns the resident size of the equivalent uncompressed
// columnar representation (8 bytes per numeric cell, header + bytes per
// string cell) — the baseline the compression ratio is measured
// against.
func (e *TableEncoding) RawBytes() int64 { return e.rawBytes }

// Set holds the encodings of a database's tables plus a generation
// counter the plan-cache layout key folds in: rebuilding the encodings
// bumps the generation, so cached plans bound to the old segment layout
// miss instead of being served.
type Set struct {
	mu     sync.RWMutex
	gen    atomic.Uint64
	tables map[string]*TableEncoding
}

// BuildAll encodes every table of the database and returns the set at
// generation 1.
func BuildAll(db *storage.Database) (*Set, error) {
	s := &Set{tables: make(map[string]*TableEncoding)}
	if err := s.build(db); err != nil {
		return nil, err
	}
	s.gen.Store(1)
	return s, nil
}

// Rebuild re-encodes every table against the database's current contents
// and bumps the generation.
func (s *Set) Rebuild(db *storage.Database) error {
	if err := s.build(db); err != nil {
		return err
	}
	s.gen.Add(1)
	return nil
}

func (s *Set) build(db *storage.Database) error {
	names := db.Catalog.TableNames()
	encs := make(map[string]*TableEncoding, len(names))
	for _, name := range names {
		t, ok := db.Table(name)
		if !ok {
			return fmt.Errorf("colstore: catalog table %q missing from storage", name)
		}
		encs[name] = buildTable(t)
	}
	s.mu.Lock()
	s.tables = encs
	s.mu.Unlock()
	return nil
}

// For returns the encoding of the named table.
func (s *Set) For(name string) (*TableEncoding, bool) {
	s.mu.RLock()
	e, ok := s.tables[name]
	s.mu.RUnlock()
	return e, ok
}

// Generation returns the set's build generation; it increases on every
// Rebuild.
func (s *Set) Generation() uint64 { return s.gen.Load() }

// EncodedBytes sums EncodedBytes over every encoded table.
func (s *Set) EncodedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, e := range s.tables {
		n += e.encodedBytes
	}
	return n
}

// RawBytes sums RawBytes over every encoded table.
func (s *Set) RawBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, e := range s.tables {
		n += e.rawBytes
	}
	return n
}
