package colstore

import (
	"encoding/binary"
	"sort"
	"strings"
	"testing"

	"robustqo/internal/catalog"
)

// Fuzz round-trip harnesses: each steers the fuzzed bytes toward one
// codec's shape, encodes through the production entry point, and checks
// decode identity and zone soundness. Run via `make fuzz-smoke`
// or `go test -fuzz=FuzzX ./internal/colstore`.

func fuzzCheckInts(t *testing.T, vals []int64) {
	t.Helper()
	if len(vals) == 0 {
		return
	}
	e := encOfInts(vals, catalog.Int)
	got := decodeAll(e, 0)
	for i, v := range got {
		if v.I != vals[i] {
			t.Fatalf("row %d decoded %d, want %d (enc=%d)", i, v.I, vals[i], e.cols[0].segs[0].enc)
		}
	}
	zone, ok := e.Zone(0, 0)
	if !ok {
		t.Fatal("int segment lost its zone map")
	}
	for _, v := range vals {
		if v < zone.Min || v > zone.Max {
			t.Fatalf("value %d escapes zone [%d,%d]", v, zone.Min, zone.Max)
		}
	}
}

// FuzzBitPackRoundTrip shapes high-entropy values at a fuzzed bit width,
// exercising the packWords/unpack pair across word boundaries.
func FuzzBitPackRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 255, 0, 7, 9, 200}, uint8(13))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}, uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		width = width%64 + 1
		mask := uint64(1)<<width - 1
		var vals []int64
		for len(data) >= 8 {
			vals = append(vals, int64(binary.LittleEndian.Uint64(data)&mask))
			data = data[8:]
		}
		fuzzCheckInts(t, vals)
	})
}

// FuzzFORRoundTrip shapes values around a fuzzed frame-of-reference base,
// including negative and near-overflow bases.
func FuzzFORRoundTrip(f *testing.F) {
	f.Add(int64(-9223372036854775808), []byte{0, 1, 2, 3})
	f.Add(int64(9223372036854775000), []byte{200, 100, 0})
	f.Add(int64(-5), []byte{1, 9, 3, 3, 3, 7})
	f.Fuzz(func(t *testing.T, base int64, data []byte) {
		vals := make([]int64, len(data))
		for i, b := range data {
			vals[i] = base + int64(b)
		}
		fuzzCheckInts(t, vals)
	})
}

// FuzzRLERoundTrip expands fuzzed (value, length) pairs into runs so the
// codec chooser prefers run-length encoding.
func FuzzRLERoundTrip(f *testing.F) {
	f.Add([]byte{5, 100, 9, 3, 5, 200})
	f.Add([]byte{0, 255, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []int64
		for i := 0; i+1 < len(data) && len(vals) < 2*SegmentRows; i += 2 {
			v, n := int64(int8(data[i])), int(data[i+1])%64+1
			for j := 0; j < n; j++ {
				vals = append(vals, v)
			}
		}
		fuzzCheckInts(t, vals)
	})
}

// FuzzDictRoundTrip splits the fuzzed input into strings and round-trips
// the dictionary codec, checking code-space zones stay sound.
func FuzzDictRoundTrip(f *testing.F) {
	f.Add("pear,apple,pear,,fig")
	f.Add("a,b,c,a,a,a,zzz,\x00\x01")
	f.Fuzz(func(t *testing.T, s string) {
		vals := strings.Split(s, ",")
		e := encOfStrings(vals)
		for i, v := range decodeAll(e, 0) {
			if v.S != vals[i] {
				t.Fatalf("row %d decoded %q, want %q", i, v.S, vals[i])
			}
		}
		dict := e.Dict(0)
		for i := 1; i < len(dict); i++ {
			if dict[i-1] >= dict[i] {
				t.Fatalf("dictionary not strictly sorted at %d", i)
			}
		}
		// Every row's dictionary code lies inside the segment's code-space
		// zone.
		zone, ok := e.Zone(0, 0)
		if !ok {
			t.Fatal("string segment lost its zone map")
		}
		for i, v := range vals {
			if c := int64(sort.SearchStrings(dict, v)); c < zone.Min || c > zone.Max {
				t.Fatalf("row %d code %d escapes zone [%d,%d]", i, c, zone.Min, zone.Max)
			}
		}
	})
}
