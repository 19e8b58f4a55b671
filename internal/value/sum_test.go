package value

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"
)

// oracleSum is the float64 nearest the real sum of xs, computed in
// math/big at a precision no finite float64 sum can exceed, with the
// special values of IEEE addition.
func oracleSum(xs []float64) float64 {
	var nan, pos, neg bool
	acc := new(big.Float).SetPrec(4096)
	for _, x := range xs {
		switch {
		case x != x:
			nan = true
		case math.IsInf(x, 1):
			pos = true
		case math.IsInf(x, -1):
			neg = true
		default:
			acc.Add(acc, new(big.Float).SetFloat64(x))
		}
	}
	switch {
	case nan || pos && neg:
		return math.NaN()
	case pos:
		return math.Inf(1)
	case neg:
		return math.Inf(-1)
	}
	f, _ := acc.Float64()
	return f
}

// sumOf sums xs with Add, and checks AddSel makes the same sum.
func sumOf(t testing.TB, xs []float64) float64 {
	t.Helper()
	var s, sel ExactSum
	for _, x := range xs {
		s.Add(x)
	}
	offs := make([]int, len(xs))
	for i := range offs {
		offs[i] = i
	}
	var bins SumBins
	AddSel(&sel, &bins, xs, 0, offs)
	if got, want := sel.Float64(), s.Float64(); !sameBits(got, want) {
		t.Fatalf("AddSel sums %v to %v, Add to %v", xs, got, want)
	}
	if bins != (SumBins{}) {
		t.Fatal("AddSel left bins dirty")
	}
	return s.Float64()
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// specialValues holds what naive summation gets wrong: NaN, both
// infinities, both zeros, subnormals, values near the top of the range
// and a catastrophic cancellation.
var specialValues = [][]float64{
	{},
	{math.Copysign(0, -1)},
	{math.Copysign(0, -1), math.Copysign(0, -1)},
	{0, math.Copysign(0, -1)},
	{1e16, 1, -1e16},
	{1, 1e100, 1, -1e100},
	{0.1, 0.2, 0.3, -0.6},
	{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64},
	{math.MaxFloat64, math.MaxFloat64},
	{-math.MaxFloat64, -math.MaxFloat64 / 2},
	{math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0) / (1 << 53)},
	{math.MaxFloat64, math.Ldexp(1, 970)},
	{math.MaxFloat64, math.Ldexp(1, 969)},
	{math.MaxFloat64, math.Ldexp(1, 969), math.SmallestNonzeroFloat64},
	{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64},
	{math.Ldexp(1, -1022), -math.SmallestNonzeroFloat64},
	{math.Ldexp(1, -1022), math.Ldexp(1, -1022)},
	{1, math.Ldexp(1, -53)},
	{1, math.Ldexp(1, -53), math.SmallestNonzeroFloat64},
	{math.Nextafter(1, 2), math.Ldexp(1, -53)},
	{-1, -math.Ldexp(1, -53), -math.SmallestNonzeroFloat64},
	{math.NaN(), 1},
	{math.Inf(1), 1, math.MaxFloat64},
	{math.Inf(-1), -1},
	{math.Inf(1), math.Inf(-1)},
	{math.Float64frombits(0x7ff8000000000042), math.Inf(1)},
}

func TestExactSumSpecialValues(t *testing.T) {
	for _, xs := range specialValues {
		if got, want := sumOf(t, xs), oracleSum(xs); !sameBits(got, want) {
			t.Errorf("sum %v = %v (%#x), want %v (%#x)", xs, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if got := sumOf(t, []float64{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64}); got != math.MaxFloat64 {
		t.Errorf("intermediate overflow: %v", got)
	}
	if got := sumOf(t, []float64{1e16, 1, -1e16}); got != 1 {
		t.Errorf("cancellation: %v, want 1", got)
	}
	if got := sumOf(t, []float64{math.Copysign(0, -1)}); math.Signbit(got) {
		t.Error("an exactly zero sum must be +0")
	}
	if got := sumOf(t, []float64{math.NaN()}); !sameBits(got, math.NaN()) {
		t.Errorf("NaN sum has bits %#x", math.Float64bits(got))
	}
}

// TestExactSumNormalizes drives one sum past the deferred-carry bound
// with the chunk counter forced high, and checks the value survives.
func TestExactSumNormalizes(t *testing.T) {
	var s, o ExactSum
	xs := []float64{math.MaxFloat64, -1.5, 3, math.Ldexp(1, -1070)}
	for _, x := range xs {
		s.Add(x)
		o.Add(x)
	}
	s.adds, o.adds = sumNormEvery-1, sumNormEvery-1
	s.Add(-math.MaxFloat64)
	s.Add(7)
	s.Merge(&o)
	want := oracleSum(append(append(append([]float64{}, xs...), -math.MaxFloat64, 7), xs...))
	if got := s.Float64(); !sameBits(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestExactSumResetAndMerge(t *testing.T) {
	var a, b ExactSum
	a.Add(2)
	a.Add(math.Inf(1))
	a.Reset()
	if got := a.Float64(); got != 0 {
		t.Fatalf("reset sum %v", got)
	}
	a.Add(0.1)
	b.Add(0.2)
	b.Add(math.Ldexp(1, -1074))
	a.Merge(&b)
	if got, want := a.Float64(), oracleSum([]float64{0.1, 0.2, math.Ldexp(1, -1074)}); !sameBits(got, want) {
		t.Fatalf("merge %v, want %v", got, want)
	}
	if got := b.Float64(); !sameBits(got, oracleSum([]float64{0.2, math.Ldexp(1, -1074)})) {
		t.Fatalf("merged operand changed to %v", got)
	}
}

// floatsOf decodes fuzz bytes into float64s: raw bit patterns, so every
// class of value is reachable, and every fourth one a small decimal, so
// ordinary sums are too.
func floatsOf(data []byte) []float64 {
	var xs []float64
	for len(data) >= 8 {
		u := binary.LittleEndian.Uint64(data)
		data = data[8:]
		if len(xs)%4 == 3 {
			xs = append(xs, float64(int64(u)%100000)/100)
			continue
		}
		xs = append(xs, math.Float64frombits(u))
	}
	return xs
}

// FuzzExactSum holds ExactSum to the math/big oracle under any
// permutation of the addends (a rotation chosen by rot, then a reversal)
// and any split of them into two sums that are merged.
func FuzzExactSum(f *testing.F) {
	for _, xs := range specialValues {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		f.Add(b, uint8(1), uint8(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, rot, cut uint8) {
		xs := floatsOf(data)
		want := oracleSum(xs)
		if got := sumOf(t, xs); !sameBits(got, want) {
			t.Fatalf("sum %v = %v, want %v", xs, got, want)
		}
		n := len(xs)
		if n == 0 {
			return
		}
		perm := make([]float64, 0, n)
		for i := range xs {
			perm = append(perm, xs[(i+int(rot))%n])
		}
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			perm[i], perm[j] = perm[j], perm[i]
		}
		var a, b ExactSum
		k := int(cut) % (n + 1)
		for _, x := range perm[:k] {
			a.Add(x)
		}
		for _, x := range perm[k:] {
			b.Add(x)
		}
		a.Merge(&b)
		if got := a.Float64(); !sameBits(got, want) {
			t.Fatalf("permuted split sum %v = %v, want %v", perm, got, want)
		}
	})
}

// TestExactSumRandomAgainstOracle sums seeded random batches of mixed
// magnitudes and signs.
func TestExactSumRandomAgainstOracle(t *testing.T) {
	x := uint64(2005)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for trial := 0; trial < 300; trial++ {
		xs := make([]float64, 1+next()%200)
		for i := range xs {
			switch next() % 3 {
			case 0:
				xs[i] = math.Float64frombits(next()&^(0x7ff<<52) | (next()%0x7ff)<<52)
			case 1:
				xs[i] = math.Ldexp(float64(int64(next()%1e6)-5e5), int(next()%120)-60)
			default:
				xs[i] = float64(next()%1e7) / 100
			}
		}
		if got, want := sumOf(t, xs), oracleSum(xs); !sameBits(got, want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
	}
}

func BenchmarkExactSumAdd(b *testing.B) {
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64(i*7919%100000) / 100
	}
	var s ExactSum
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(xs[i&4095])
	}
	_ = s.Float64()
}

func BenchmarkExactSumAddSel(b *testing.B) {
	xs := make([]float64, 4096)
	offs := make([]int, 1024)
	for i := range xs {
		xs[i] = float64(i*7919%10000000) / 100
	}
	for i := range offs {
		offs[i] = i * 3
	}
	var s ExactSum
	var bins SumBins
	b.ResetTimer()
	for i := 0; i < b.N; i += len(offs) {
		AddSel(&s, &bins, xs, 1, offs)
	}
	_ = s.Float64()
}

// TestExactSumFarPastRange sums enough huge addends to carry into the top
// chunk, and back out again.
func TestExactSumFarPastRange(t *testing.T) {
	xs := make([]float64, 0, 80000)
	for range 40000 {
		xs = append(xs, math.MaxFloat64)
	}
	if got := sumOf(t, xs); !math.IsInf(got, 1) {
		t.Fatalf("sum of 40,000 MaxFloat64 = %v, want +Inf", got)
	}
	for range 40000 {
		xs = append(xs, -math.MaxFloat64)
	}
	if got := sumOf(t, append(xs, 0.5)); got != 0.5 {
		t.Fatalf("cancelled sum = %v, want 0.5", got)
	}
	if got := sumOf(t, xs[40000:]); !math.IsInf(got, -1) {
		t.Fatalf("sum of 40,000 -MaxFloat64 = %v, want -Inf", got)
	}
}
