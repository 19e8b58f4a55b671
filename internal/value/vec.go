package value

import (
	"slices"

	"robustqo/internal/catalog"
)

// Vec is one typed column vector: a Kind and the one payload slice that
// kind lives in — I for Int and Date, F for Float, S for String. The
// other two slices carry no values; a reused Vec may keep their
// capacity. Batches, scan scratch and expression kernels move values
// between Vecs by copy or by index gather, so a payload is boxed into a
// Value only where a row leaves the engine (At) or an error names it.
type Vec struct {
	Kind catalog.Type
	I    []int64
	F    []float64
	S    []string
}

// Len returns the number of values.
func (v *Vec) Len() int {
	switch v.Kind {
	case catalog.Float:
		return len(v.F)
	case catalog.String:
		return len(v.S)
	default:
		return len(v.I)
	}
}

// At returns value i, of the vector's kind.
func (v *Vec) At(i int) Value {
	switch v.Kind {
	case catalog.Float:
		return Float(v.F[i])
	case catalog.String:
		return Str(v.S[i])
	default:
		return Value{Kind: v.Kind, I: v.I[i]}
	}
}

// Append appends x, which must be of the vector's kind; Int and Date
// values interchange, as storage accepts them, and a numeric x appended
// to a Float vector is converted (AsFloat).
func (v *Vec) Append(x Value) {
	switch v.Kind {
	case catalog.Float:
		v.F = append(v.F, x.AsFloat())
	case catalog.String:
		v.S = append(v.S, x.S)
	default:
		v.I = append(v.I, x.I)
	}
}

// Set overwrites value i with value j of src, a vector of v's kind.
func (v *Vec) Set(i int, src *Vec, j int) {
	switch v.Kind {
	case catalog.Float:
		v.F[i] = src.F[j]
	case catalog.String:
		v.S[i] = src.S[j]
	default:
		v.I[i] = src.I[j]
	}
}

// Reset empties the vector and sets its kind, keeping the capacity of
// every payload slice.
func (v *Vec) Reset(kind catalog.Type) {
	v.Kind, v.I, v.F, v.S = kind, v.I[:0], v.F[:0], v.S[:0]
}

// Truncate drops every value past the first n.
func (v *Vec) Truncate(n int) {
	switch v.Kind {
	case catalog.Float:
		v.F = v.F[:n]
	case catalog.String:
		v.S = v.S[:n]
	default:
		v.I = v.I[:n]
	}
}

// AppendVec appends every value of src, a vector of v's kind. When the
// vector must grow it at least doubles, so draining a stream batch by
// batch copies each value about twice, where append's gentler growth of
// large slices would copy it about five times.
//
//qo:hotpath
func (v *Vec) AppendVec(src *Vec) {
	switch v.Kind {
	case catalog.Float:
		v.F = append(grow(v.F, len(src.F)), src.F...)
	case catalog.String:
		v.S = append(grow(v.S, len(src.S)), src.S...)
	default:
		v.I = append(grow(v.I, len(src.I)), src.I...)
	}
}

// grow returns xs with room for n more values, at least doubling its
// capacity when it has to reallocate.
func grow[T int64 | float64 | string](xs []T, n int) []T {
	if cap(xs)-len(xs) >= n {
		return xs
	}
	return slices.Grow(xs, max(n, cap(xs)))
}

// Compact keeps, of the values at and after base, those at the strictly
// increasing positions sel, moving them down in place; values before base
// stay.
//
//qo:hotpath
func (v *Vec) Compact(base int, sel []int) {
	switch v.Kind {
	case catalog.Float:
		v.F = compact(v.F, base, sel)
	case catalog.String:
		v.S = compact(v.S, base, sel)
	default:
		v.I = compact(v.I, base, sel)
	}
}

// compact is Vec.Compact over one payload slice.
//
//qo:hotpath
func compact[T int64 | float64 | string](xs []T, base int, sel []int) []T {
	for out, in := range sel {
		xs[base+out] = xs[in]
	}
	return xs[:base+len(sel)]
}

// AppendSel appends to dst the values of src, a vector of dst's kind, at
// positions idx, in idx's order.
//
//qo:hotpath
func AppendSel[X int | int32](dst, src *Vec, idx []X) {
	switch dst.Kind {
	case catalog.Float:
		dst.F = gather(dst.F, src.F, idx)
	case catalog.String:
		dst.S = gather(dst.S, src.S, idx)
	default:
		dst.I = gather(dst.I, src.I, idx)
	}
}

// gather appends xs[idx[k]] to dst for every k, in order.
//
//qo:hotpath
func gather[T int64 | float64 | string, X int | int32](dst, xs []T, idx []X) []T {
	n := len(dst)
	dst = append(dst, make([]T, len(idx))...)
	out := dst[n:]
	for k, i := range idx {
		out[k] = xs[i]
	}
	return dst
}
