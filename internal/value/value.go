// Package value defines the runtime value model shared by the storage,
// expression, index, and execution layers: a small tagged union over the
// catalog's column types, with total ordering within each type.
package value

import (
	"fmt"
	"strconv"

	"robustqo/internal/catalog"
)

// Value is one typed scalar. The Kind selects which payload field is live:
// I for Int and Date, F for Float, S for String.
type Value struct {
	Kind catalog.Type
	I    int64
	F    float64
	S    string
}

// Int returns an Int value.
func Int(v int64) Value { return Value{Kind: catalog.Int, I: v} }

// Float returns a Float value.
func Float(v float64) Value { return Value{Kind: catalog.Float, F: v} }

// Str returns a String value.
func Str(v string) Value { return Value{Kind: catalog.String, S: v} }

// Date returns a Date value from days since the epoch.
func Date(days int64) Value { return Value{Kind: catalog.Date, I: days} }

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case catalog.Int:
		return fmt.Sprintf("%d", v.I)
	case catalog.Float:
		return fmt.Sprintf("%g", v.F)
	case catalog.String:
		return fmt.Sprintf("%q", v.S)
	case catalog.Date:
		return fmt.Sprintf("date(%d)", v.I)
	default:
		return fmt.Sprintf("value(kind=%d)", int(v.Kind))
	}
}

// AppendKey appends exactly the bytes of v.String() to dst without
// formatting through fmt, so a hot loop can build a map key in a reused
// buffer.
func AppendKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case catalog.Int:
		return strconv.AppendInt(dst, v.I, 10)
	case catalog.Float:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case catalog.String:
		return strconv.AppendQuote(dst, v.S)
	case catalog.Date:
		dst = append(dst, "date("...)
		return append(strconv.AppendInt(dst, v.I, 10), ')')
	default:
		return append(dst, v.String()...)
	}
}

// Numeric reports whether the value participates in arithmetic and
// cross-type numeric comparison (Int, Float, Date).
func (v Value) Numeric() bool { return v.Kind != catalog.String }

// AsFloat converts a numeric value to float64. String values yield 0;
// callers must check Numeric first when it matters.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case catalog.Float:
		return v.F
	default:
		return float64(v.I)
	}
}

// Compare returns -1, 0, or +1 ordering a before/equal/after b.
// Numeric kinds (Int, Float, Date) compare by numeric value; strings
// compare lexicographically. Comparing a string with a numeric value is a
// type error and returns an error.
func Compare(a, b Value) (int, error) {
	aStr := a.Kind == catalog.String
	bStr := b.Kind == catalog.String
	if aStr != bStr {
		return 0, fmt.Errorf("value: cannot compare %s with %s", a.Kind, b.Kind)
	}
	if aStr {
		switch {
		case a.S < b.S:
			return -1, nil
		case a.S > b.S:
			return 1, nil
		default:
			return 0, nil
		}
	}
	// Pure integer comparison avoids float rounding when both sides are
	// integral kinds.
	if a.Kind != catalog.Float && b.Kind != catalog.Float {
		switch {
		case a.I < b.I:
			return -1, nil
		case a.I > b.I:
			return 1, nil
		default:
			return 0, nil
		}
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1, nil
	case af > bf:
		return 1, nil
	default:
		return 0, nil
	}
}

// Equal reports a == b under Compare's ordering; mixed string/numeric
// comparisons are unequal rather than errors, which suits hash-join
// probing.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Key returns a map key identifying the value for hashing (joins, group
// by). Values that Compare as equal map to the same key within a kind
// class; Int and Date values with equal payloads share a key, as the engine
// only ever hashes columns of matching declared types.
func (v Value) Key() any {
	if v.Kind == catalog.String {
		return v.S
	}
	if v.Kind == catalog.Float {
		return v.F
	}
	return v.I
}

// Row is one tuple of values.
type Row []Value

// Clone returns a deep-enough copy of the row (values are immutable).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
