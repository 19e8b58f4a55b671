package value

import (
	"fmt"
	"math"
	"testing"

	"robustqo/internal/catalog"
)

// same is exact equality, float payload bits included.
func same(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// TestVecRoundTrip checks that a vector of every kind reads back each
// value exactly — NaN, -0 and the int64 extremes included — after
// Append, AppendVec, an index gather, an in-place Compact and a
// Truncate, and that an Int value appended to a Date vector reads back
// as a Date with the same payload.
func TestVecRoundTrip(t *testing.T) {
	for _, kind := range []catalog.Type{catalog.Int, catalog.Date, catalog.Float, catalog.String} {
		t.Run(kind.String(), func(t *testing.T) {
			gen := func(i int) Value {
				switch kind {
				case catalog.Int:
					return Int([]int64{math.MinInt64, math.MaxInt64, -1}[i%3] + int64(i%2))
				case catalog.Date:
					return Date(int64(i) - 700)
				case catalog.Float:
					return Float([]float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), float64(i) / 3}[i%4])
				default:
					return Str(fmt.Sprint("v", i))
				}
			}
			const n = 3000
			var want []Value
			v := Vec{Kind: kind}
			for i := 0; i < n; i++ {
				want = append(want, gen(i))
				v.Append(want[i])
			}
			if kind == catalog.Date {
				v.Append(Int(42))
				want = append(want, Date(42))
			}
			check := func(step string, v *Vec, want []Value) {
				t.Helper()
				if v.Len() != len(want) {
					t.Fatalf("%s: %d values, want %d", step, v.Len(), len(want))
				}
				for i := range want {
					if got := v.At(i); !same(got, want[i]) {
						t.Fatalf("%s: value %d = %#v, want %#v", step, i, got, want[i])
					}
				}
			}
			check("append", &v, want)

			all := Vec{Kind: kind}
			all.AppendVec(&v)
			all.AppendVec(&v)
			check("append vector", &all, append(append([]Value(nil), want...), want...))

			idx := make([]int32, len(want))
			gathered := make([]Value, len(want))
			for i := range idx {
				idx[i] = int32((i * 7) % len(want))
				gathered[i] = want[idx[i]]
			}
			g := Vec{Kind: kind}
			g.Append(want[0])
			AppendSel(&g, &v, idx)
			check("gather", &g, append([]Value{want[0]}, gathered...))

			var sel []int
			var kept []Value
			for i := 10; i < len(want); i += 3 {
				sel = append(sel, i)
				kept = append(kept, want[i])
			}
			v.Compact(10, sel)
			check("compact", &v, append(append([]Value(nil), want[:10]...), kept...))
			v.Truncate(5)
			check("truncate", &v, want[:5])
			v.Reset(catalog.String)
			if v.Len() != 0 || v.Kind != catalog.String {
				t.Fatalf("reset: %d values of kind %s", v.Len(), v.Kind)
			}
		})
	}
}

// TestVecSet checks that Set overwrites exactly one value, with the
// source's payload bits, in a vector of every kind.
func TestVecSet(t *testing.T) {
	src := map[catalog.Type][]Value{
		catalog.Int:    {Int(math.MinInt64), Int(7)},
		catalog.Date:   {Date(-3), Date(9)},
		catalog.Float:  {Float(math.NaN()), Float(math.Copysign(0, -1))},
		catalog.String: {Str(""), Str("x")},
	}
	for kind, vals := range src {
		s, v := Vec{Kind: kind}, Vec{Kind: kind}
		for _, x := range vals {
			s.Append(x)
			v.Append(x)
		}
		v.Set(0, &s, 1)
		v.Set(1, &s, 0)
		if !same(v.At(0), vals[1]) || !same(v.At(1), vals[0]) || v.Len() != 2 {
			t.Errorf("%s: after two Sets the vector holds %#v, %#v", kind, v.At(0), v.At(1))
		}
	}
}
