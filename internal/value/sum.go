package value

import (
	"math"
	"math/bits"
)

// ExactSum adds float64s exactly and rounds once, when read: Float64
// returns the float64 nearest the true real sum of every addend (ties to
// even), so the result depends neither on the order of the additions nor
// on how they were split between sums that were later merged. That is
// what lets an aggregate's partial sums merge at any degree of
// parallelism and over any shard layout with the same bits.
//
// It is a small superaccumulator in the style of Neal ("Fast exact
// summation using small and large superaccumulators", 2015): every
// finite float64 is an integer multiple of 2^-1074 below 2^1024, so a
// fixed-point integer of 2,098 bits holds any of them exactly. The
// integer is kept as signed 32-bit digits in int64 chunks; an addend's
// 53-bit significand lands on three adjacent chunks, and carries are
// deferred until some chunk could overflow (every 2^30 additions) or the
// sum is read.
//
// The special values follow IEEE addition of the exact sum: a NaN addend,
// or both infinities, make the sum NaN (always math.NaN()'s bits); one
// infinity makes it that infinity; a finite sum beyond the float64 range
// rounds to an infinity. A sum that is exactly zero is +0, as a running
// sum started at +0 would be. The zero value is an empty sum, and the
// chunks are allocated at the first nonzero finite addend.
type ExactSum struct {
	acc *[sumChunks]int64
	// adds counts the additions since acc was last normalized, which
	// bounds every chunk's magnitude.
	adds int32
	// special records the NaN and infinite addends.
	special uint8
}

const (
	// sumChunks covers bit positions 0..2097 of the fixed-point integer
	// (unit 2^-1074) in 32-bit digits, plus a top chunk that holds the
	// carries out of them.
	sumChunks = 67
	// sumNormEvery bounds the additions between normalizations: each adds
	// less than 2^32 to a chunk, so no chunk reaches 2^63.
	sumNormEvery = 1 << 30

	sawNaN    = 1
	sawPosInf = 2
	sawNegInf = 4
)

// Add adds x to the sum.
//
//qo:hotpath
func (s *ExactSum) Add(x float64) {
	b := math.Float64bits(x)
	e := int(b>>52) & 0x7ff
	if e == 0x7ff || b<<1 == 0 || s.acc == nil || s.adds >= sumNormEvery {
		s.addSlow(x)
		return
	}
	s.adds++
	m := int64(b & (1<<52 - 1))
	if e != 0 {
		m |= 1 << 52
	}
	neg := int64(b) >> 63
	s.addAt((m^neg)-neg, max(e, 1)-1)
}

// addAt adds v·2^(p-1074) to the chunks: the significand's bit 0 lands
// at position p of the fixed-point integer, chunk p/32. |v| < 2^63, so
// its magnitude shifted by p%32 spans three chunks, each piece below
// 2^32; the caller counts it as one addition.
func (s *ExactSum) addAt(v int64, p int) {
	i, sh := p>>5, uint(p&31)
	neg := v >> 63 // 0, or -1 to negate
	u := uint64((v ^ neg) - neg)
	acc := s.acc
	acc[i] += (int64(u<<sh&0xffffffff) ^ neg) - neg
	acc[i+1] += (int64(u>>(32-sh)&0xffffffff) ^ neg) - neg
	acc[i+2] += (int64(u>>(64-sh)) ^ neg) - neg
}

// SumBins is scratch for AddSel: one int64 bin per float64 exponent,
// into which a run of addends adds its signed significands before the run
// is moved into an ExactSum's chunks. A bin takes one integer add per
// addend, where the chunks take three shifted ones. Its zero value is
// ready; AddSel leaves it empty.
type SumBins struct {
	bins [2048]int64
}

// binRun bounds the addends one run adds to a bin: each significand is
// below 2^53, so 1,024 of them stay below 2^63.
const binRun = 1024

// AddSel adds float64(xs[shift+o]) to s for each offset o of offs, with
// bins as scratch: the same sum Add makes, in fewer instructions per
// addend.
//
//qo:hotpath
func AddSel[T int64 | float64](s *ExactSum, bins *SumBins, xs []T, shift int, offs []int) {
	for len(offs) > 0 {
		run := offs[:min(len(offs), binRun)]
		offs = offs[len(run):]
		lo, hi := 0x7ff, -1
		for _, o := range run {
			x := float64(xs[shift+o])
			b := math.Float64bits(x)
			e := int(b>>52) & 0x7ff
			if e == 0x7ff || b<<1 == 0 {
				s.addSlow(x)
				continue
			}
			m := int64(b & (1<<52 - 1))
			if e != 0 {
				m |= 1 << 52
			}
			neg := int64(b) >> 63
			bins.bins[e] += (m ^ neg) - neg
			lo, hi = min(lo, e), max(hi, e)
		}
		if hi >= 0 {
			s.addBins(bins, lo, hi)
		}
	}
}

// addBins moves bins lo..hi into the chunks and empties them: bin e
// holds a signed multiple of 2^(max(e,1)-1075).
func (s *ExactSum) addBins(bins *SumBins, lo, hi int) {
	if s.acc == nil {
		s.acc = new([sumChunks]int64)
	}
	for e := lo; e <= hi; e++ {
		v := bins.bins[e]
		if v == 0 {
			continue
		}
		bins.bins[e] = 0
		if s.adds >= sumNormEvery {
			normalize(s.acc)
			s.adds = 1
		}
		s.adds++
		s.addAt(v, max(e, 1)-1)
	}
}

// addSlow is Add's path for the special values, zeros, the first addend
// and a due normalization.
func (s *ExactSum) addSlow(x float64) {
	switch {
	case x != x:
		s.special |= sawNaN
		return
	case math.IsInf(x, 1):
		s.special |= sawPosInf
		return
	case math.IsInf(x, -1):
		s.special |= sawNegInf
		return
	case x == 0:
		return
	}
	if s.acc == nil {
		s.acc = new([sumChunks]int64)
	}
	if s.adds >= sumNormEvery {
		normalize(s.acc)
		s.adds = 1
	}
	s.Add(x)
}

// Merge adds every addend of o to s. o keeps its value.
func (s *ExactSum) Merge(o *ExactSum) {
	s.special |= o.special
	if o.acc == nil {
		return
	}
	if s.acc == nil {
		s.acc = new([sumChunks]int64)
	}
	if int64(s.adds)+int64(o.adds) >= sumNormEvery {
		normalize(s.acc)
		normalize(o.acc)
		s.adds, o.adds = 1, 1
	}
	for i, c := range o.acc {
		s.acc[i] += c
	}
	s.adds += o.adds
}

// Reset empties the sum, keeping its chunks.
func (s *ExactSum) Reset() {
	if s.acc != nil {
		clear(s.acc[:])
	}
	s.adds, s.special = 0, 0
}

// normalize propagates carries so every chunk but the top one holds a
// digit in [0, 2^32); the top chunk keeps the signed rest.
func normalize(acc *[sumChunks]int64) {
	var carry int64
	for i := range sumChunks - 1 {
		v := acc[i] + carry
		carry = v >> 32
		acc[i] = v & 0xffffffff
	}
	acc[sumChunks-1] += carry
}

// Float64 returns the sum rounded to the nearest float64, ties to even.
func (s *ExactSum) Float64() float64 {
	switch {
	case s.special&sawNaN != 0 || s.special&(sawPosInf|sawNegInf) == sawPosInf|sawNegInf:
		return math.NaN()
	case s.special&sawPosInf != 0:
		return math.Inf(1)
	case s.special&sawNegInf != 0:
		return math.Inf(-1)
	case s.acc == nil:
		return 0
	}
	c := *s.acc
	normalize(&c)
	var sign uint64
	if c[sumChunks-1] < 0 {
		// Negate the two's-complement integer and read its magnitude.
		sign = 1 << 63
		for i := range c {
			c[i] = -c[i]
		}
		normalize(&c)
	}
	t := sumChunks - 1
	for t >= 0 && c[t] == 0 {
		t--
	}
	switch {
	case t < 0:
		return 0
	case t == sumChunks-1:
		// At least 2^2112 units, 2^1038: past the float64 range.
		return math.Float64frombits(sign | 0x7ff<<52)
	}
	// msb is the position of the magnitude's leading one.
	msb := 32*t + 31 - bits.LeadingZeros32(uint32(c[t]))
	if msb <= 52 {
		// Below 2^53 units the integer is the float's bit pattern: a
		// subnormal's significand, or the smallest binade's (exponent
		// field 1 is bit 52 itself).
		return math.Float64frombits(sign | uint64(c[0]) | uint64(c[1])<<32)
	}
	// Round the 64 bits from msb down to 53, ties to even; sticky records
	// any one below the 64.
	pos := msb - 63
	top := digits64(&c, max(pos, 0))
	sticky := false
	if pos < 0 {
		top <<= uint(-pos)
	} else {
		ci, sh := pos>>5, uint(pos&31)
		sticky = c[ci]&(1<<sh-1) != 0
		for _, d := range c[:ci] {
			sticky = sticky || d != 0
		}
	}
	mant, rem := top>>11, top&0x7ff
	if rem > 0x400 || rem == 0x400 && (sticky || mant&1 == 1) {
		if mant++; mant == 1<<53 {
			mant >>= 1
			msb++
		}
	}
	exp := uint64(msb - 51)
	if exp >= 0x7ff {
		return math.Float64frombits(sign | 0x7ff<<52)
	}
	return math.Float64frombits(sign | exp<<52 | mant&(1<<52-1))
}

// digits64 returns bits pos..pos+63 of the normalized integer c.
func digits64(c *[sumChunks]int64, pos int) uint64 {
	ci, sh := pos>>5, uint(pos&31)
	at := func(i int) uint64 {
		if i < sumChunks {
			return uint64(c[i])
		}
		return 0
	}
	return at(ci)>>sh | at(ci+1)<<(32-sh) | at(ci+2)<<(64-sh)
}
