package value

import (
	"math"
	"testing"
	"testing/quick"

	"robustqo/internal/catalog"
)

func TestConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		kind catalog.Type
		str  string
	}{
		{Int(42), catalog.Int, "42"},
		{Float(2.5), catalog.Float, "2.5"},
		{Str("hi"), catalog.String, `"hi"`},
		{Date(100), catalog.Date, "date(100)"},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("%v kind = %v, want %v", c.v, c.v.Kind, c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String = %q, want %q", got, c.str)
		}
	}
}

// TestAppendKeyMatchesString pins AppendKey to String byte for byte: the
// aggregate's group keys and its output order (sorted keys) depend on it.
func TestAppendKeyMatchesString(t *testing.T) {
	vals := []Value{
		Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Date(0), Date(-719468), Date(10592),
		Str(""), Str("plain"), Str(`say "hi"\n`), Str("nul\x00byte"), Str("bad\xffutf8\xc3"), Str("ünï\tcode"),
		Float(0), Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(1e21), Float(1e20), Float(0.1), Float(-2.5), Float(1e-7), Float(123456789.125), Float(math.SmallestNonzeroFloat64),
		{Kind: catalog.Type(99), I: 3},
	}
	buf := []byte("prefix|")
	for _, v := range vals {
		if got := string(AppendKey(nil, v)); got != v.String() {
			t.Errorf("AppendKey(%#v) = %q, String() = %q", v, got, v.String())
		}
		if got := string(AppendKey(buf, v)); got != "prefix|"+v.String() {
			t.Errorf("AppendKey onto a prefix = %q", got)
		}
	}
	f := func(i int64, x float64, s string) bool {
		for _, v := range []Value{Int(i), Date(i), Float(x), Str(s)} {
			if string(AppendKey(nil, v)) != v.String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareNumeric(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Float(2), Int(2), 0},
		{Date(10), Date(20), -1},
		{Date(10), Int(10), 0},
		{Float(0.1), Float(0.2), -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
}

func TestCompareStrings(t *testing.T) {
	if c, err := Compare(Str("a"), Str("b")); err != nil || c != -1 {
		t.Errorf("Compare(a,b) = %d, %v", c, err)
	}
	if c, err := Compare(Str("b"), Str("b")); err != nil || c != 0 {
		t.Errorf("Compare(b,b) = %d, %v", c, err)
	}
	if c, err := Compare(Str("c"), Str("b")); err != nil || c != 1 {
		t.Errorf("Compare(c,b) = %d, %v", c, err)
	}
}

func TestCompareTypeMismatch(t *testing.T) {
	if _, err := Compare(Str("a"), Int(1)); err == nil {
		t.Error("string/int comparison succeeded")
	}
	if _, err := Compare(Int(1), Str("a")); err == nil {
		t.Error("int/string comparison succeeded")
	}
}

func TestEqual(t *testing.T) {
	if !Equal(Int(5), Int(5)) || Equal(Int(5), Int(6)) {
		t.Error("int equality wrong")
	}
	if Equal(Str("5"), Int(5)) {
		t.Error("cross-type equality should be false")
	}
	if !Equal(Float(1), Int(1)) {
		t.Error("1.0 should equal 1")
	}
}

func TestKey(t *testing.T) {
	if Int(7).Key() != Date(7).Key() {
		t.Error("Int and Date keys with same payload should match")
	}
	if Int(7).Key() == Str("7").Key() {
		t.Error("Int and Str keys should differ")
	}
	if Float(1.5).Key() != Float(1.5).Key() {
		t.Error("Float keys should be stable")
	}
}

func TestAsFloatAndNumeric(t *testing.T) {
	if Int(3).AsFloat() != 3 || Float(2.5).AsFloat() != 2.5 || Date(9).AsFloat() != 9 {
		t.Error("AsFloat wrong")
	}
	if Str("x").Numeric() {
		t.Error("string Numeric")
	}
	if !Int(1).Numeric() || !Float(1).Numeric() || !Date(1).Numeric() {
		t.Error("numeric kinds not Numeric")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), Str("a")}
	c := r.Clone()
	c[0] = Int(9)
	if r[0].I != 1 {
		t.Error("Clone aliases original")
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, err1 := Compare(Int(a), Int(b))
		y, err2 := Compare(Int(b), Int(a))
		return err1 == nil && err2 == nil && x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	// Same-kind comparisons cannot fail, so the errors are discarded.
	f := func(a, b, c float64) bool {
		va, vb, vc := Float(a), Float(b), Float(c)
		ab, _ := Compare(va, vb)
		bc, _ := Compare(vb, vc)
		if ab <= 0 && bc <= 0 {
			ac, _ := Compare(va, vc)
			return ac <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDateCivilRoundTrip(t *testing.T) {
	cases := []struct {
		y, m, d int
		days    int64
	}{
		{1970, 1, 1, 0},
		{1970, 1, 2, 1},
		{1969, 12, 31, -1},
		{2000, 3, 1, 11017},
	}
	for _, c := range cases {
		if got := DateFromCivil(c.y, c.m, c.d); got != c.days {
			t.Errorf("DateFromCivil(%d,%d,%d) = %d, want %d", c.y, c.m, c.d, got, c.days)
		}
		y, m, d := CivilFromDate(c.days)
		if y != c.y || m != c.m || d != c.d {
			t.Errorf("CivilFromDate(%d) = %d-%d-%d", c.days, y, m, d)
		}
	}
}

func TestDateRoundTripProperty(t *testing.T) {
	f := func(raw int32) bool {
		days := int64(raw % 1000000)
		y, m, d := CivilFromDate(days)
		return DateFromCivil(y, m, d) == days
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestParseFormatDate(t *testing.T) {
	d, err := ParseDate("1997-07-01")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatDate(d); got != "1997-07-01" {
		t.Errorf("FormatDate = %q", got)
	}
	// TPC-H Experiment 1 window: 92 days minus 1 inclusive makes the span.
	d2, err := ParseDate("1997-09-30")
	if err != nil {
		t.Fatal(err)
	}
	if d2-d != 91 {
		t.Errorf("window length = %d days, want 91", d2-d)
	}
	for _, bad := range []string{"nope", "1997-13-01", "1997-00-10", "1997-01-32", ""} {
		if _, err := ParseDate(bad); err == nil {
			t.Errorf("ParseDate(%q) succeeded", bad)
		}
	}
}

// TestParseDateStrict pins what a strict YYYY-MM-DD reader rejects:
// trailing text, signs, other widths and separators, and days the month
// does not have, which a lenient reader rolls into the next month.
func TestParseDateStrict(t *testing.T) {
	for _, bad := range []string{
		"1997-07-01xyz", "+1997-07-01", "1997-07-01 12", " 1997-07-01", "1997-07-01 ",
		"1997-02-31", "1997-02-29", "1900-02-29", "1997-04-31", "1997-06-31",
		"1997-7-01", "1997-07-1", "97-07-01", "01997-07-01", "1997/07/01", "1997-07-+1",
		"-997-07-01", "1997-0x-01", "１997-07-01", "1997-07-0\x00",
	} {
		if d, err := ParseDate(bad); err == nil {
			t.Errorf("ParseDate(%q) = %s, want an error", bad, FormatDate(d))
		}
	}
	for _, good := range []string{"2000-02-29", "1996-02-29", "1970-01-01", "0001-01-01", "9999-12-31", "1997-12-31"} {
		d, err := ParseDate(good)
		if err != nil {
			t.Errorf("ParseDate(%q): %v", good, err)
		} else if got := FormatDate(d); got != good {
			t.Errorf("ParseDate(%q) formats as %q", good, got)
		}
	}
}

// FuzzParseDate holds ParseDate to its contract: a string it accepts
// formats back to itself.
func FuzzParseDate(f *testing.F) {
	for _, s := range []string{"1997-07-01", "1997-02-31", "1997-07-01xyz", "+1997-07-01", "0000-01-01", "2000-02-29", "9999-12-31"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDate(s)
		if err != nil {
			return
		}
		if got := FormatDate(d); got != s {
			t.Fatalf("ParseDate(%q) = %d, which formats as %q", s, d, got)
		}
	})
}
