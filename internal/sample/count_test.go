package sample_test

import (
	"fmt"
	"strings"
	"testing"

	"robustqo/internal/expr"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/tpch"
	"robustqo/internal/value"
)

// countCase is a bench-shaped predicate plus the same condition written
// directly in Go over the synopsis tuples, the brute force Count must
// agree with. A case whose residual fails on a tuple has no brute force:
// accept is nil, and wantErr says whether the prefix lets the residual
// reach a tuple at all.
type countCase struct {
	name    string
	root    string
	pred    expr.Expr
	accept  func(col func(table, column string) value.Value) bool
	wantErr bool
}

func countCases() []countCase {
	q3, q9 := value.DateFromCivil(1997, 7, 1), value.DateFromCivil(1997, 9, 30)
	in := func(v value.Value, lo, hi int64) bool { return v.I >= lo && v.I <= hi }
	qty := func(col func(string, string) value.Value) int64 { return col("lineitem", "l_quantity").I }
	price := func(col func(string, string) value.Value) float64 { return col("lineitem", "l_extendedprice").F }
	return []countCase{
		{name: "eq", root: "lineitem", pred: testkit.Expr("l_quantity = 10"),
			accept: func(col func(string, string) value.Value) bool { return qty(col) == 10 }},
		{name: "between-and-eq", root: "lineitem",
			pred: testkit.Expr("l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31' AND l_quantity = 7"),
			accept: func(col func(string, string) value.Value) bool {
				return in(col("lineitem", "l_shipdate"), testkit.Date("1995-01-01"), testkit.Date("1996-12-31")) && qty(col) == 7
			}},
		{name: "exp1", root: "lineitem", pred: tpch.Experiment1Predicate(5),
			accept: func(col func(string, string) value.Value) bool {
				return in(col("lineitem", "l_shipdate"), q3, q9) && in(col("lineitem", "l_receiptdate"), q3+5, q9+5)
			}},
		{name: "exp2", root: "lineitem", pred: tpch.Experiment2Query(0).Pred,
			accept: func(col func(string, string) value.Value) bool {
				return col("part", "p_attr1").I < tpch.PartWindow && in(col("part", "p_attr2"), 0, tpch.PartWindow-1)
			}},
		// An exclusion and a Float bound push like any interval.
		{name: "pushed-ne", root: "lineitem", pred: testkit.Expr("l_quantity <> 7"),
			accept: func(col func(string, string) value.Value) bool { return qty(col) != 7 }},
		{name: "pushed-float", root: "lineitem", pred: testkit.Expr("l_extendedprice < 50000.5"),
			accept: func(col func(string, string) value.Value) bool { return price(col) < 50000.5 }},
		// No pushable prefix: a Float literal against an Int column keeps
		// the whole predicate residual.
		{name: "residual", root: "lineitem", pred: testkit.Expr("l_quantity < 24.5 AND l_extendedprice < 50000.5"),
			accept: func(col func(string, string) value.Value) bool { return qty(col) < 25 && price(col) < 50000.5 }},
		{name: "float-between", root: "lineitem", pred: testkit.Expr("l_extendedprice BETWEEN 20000 AND 60000.25"),
			accept: func(col func(string, string) value.Value) bool { return price(col) >= 20000 && price(col) <= 60000.25 }},
		// A pushed prefix, then a residual over columns the prefix did not read.
		{name: "mixed", root: "lineitem",
			pred: testkit.Expr("l_shipdate BETWEEN DATE '1994-01-01' AND DATE '1997-12-31' AND l_quantity <> 7 AND l_extendedprice < 70000"),
			accept: func(col func(string, string) value.Value) bool {
				return in(col("lineitem", "l_shipdate"), testkit.Date("1994-01-01"), testkit.Date("1997-12-31")) &&
					qty(col) != 7 && price(col) < 70000
			}},
		// A residual type error behind a pushed prefix: the unsplit
		// evaluator's error when the prefix keeps tuples, none when it
		// keeps none.
		{name: "residual-error", root: "lineitem", pred: testkit.Expr("l_quantity < 25 AND l_extendedprice < 'a'"), wantErr: true},
		{name: "residual-error-unreached", root: "lineitem", pred: testkit.Expr("l_quantity < 0 AND l_extendedprice < 'a'")},
	}
}

// unsplitCount is the reference Count: the whole predicate bound over the
// synopsis schema and evaluated in one batch over copies of every
// stratum's columns.
func unsplitCount(t testing.TB, syn *sample.Synopsis, pred expr.Expr) (int, error) {
	t.Helper()
	cols := make([]value.Vec, len(syn.Schema.Fields))
	for c, f := range syn.Schema.Fields {
		cols[c].Kind = f.Type
	}
	for _, st := range syn.Strata() {
		for c := range cols {
			st.AppendColumn(&cols[c], c, 0, st.NumRows())
		}
	}
	bound, err := expr.Bind(pred, syn.Schema)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := bound.EvalBatch(cols, storage.RangeSel(nil, 0, syn.Size()))
	return len(keep), err
}

func countDB(t testing.TB) *storage.Database {
	t.Helper()
	db, err := tpch.Generate(tpch.Config{Lines: 6000, Parts: 2000, PartCorrelation: 0.5, Seed: 2005})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSynopsisCountAllocs: Count agrees with a brute-force count and with
// the unsplit evaluator — the same k, or the same error — on the predicate
// shapes the benchmark and the paper's experiments generate, and on
// residual-only, mixed and failing filters; and its allocations do not
// grow with the sample. The allocation comparison is skipped under -race,
// where sync.Pool drops entries at random.
func TestSynopsisCountAllocs(t *testing.T) {
	db := countDB(t)
	for _, c := range countCases() {
		allocs := map[int]float64{}
		for _, n := range []int{500, 5000} {
			syn, err := sample.BuildSynopsis(db, c.root, n, stats.NewRNG(uint64(n)))
			if err != nil {
				t.Fatal(err)
			}
			// The case names say which side of the split a predicate is on.
			if bounds, residual := expr.SplitPushdown(c.pred, syn.Schema); strings.HasPrefix(c.name, "pushed-") && residual != nil ||
				c.name == "residual" && bounds != nil {
				t.Fatalf("%s: pushed %d bounds, residual %v", c.name, len(bounds), residual)
			}
			got, err := syn.Count(c.pred)
			ref, refErr := unsplitCount(t, syn, c.pred)
			if (refErr != nil) != c.wantErr {
				t.Fatalf("%s n=%d: unsplit evaluator error %v, want error %v", c.name, n, refErr, c.wantErr)
			}
			if refErr != nil {
				if want := fmt.Sprintf("sample: synopsis %q: %v", c.root, refErr); err == nil || err.Error() != want {
					t.Errorf("%s n=%d: Count error %v, want %s", c.name, n, err, want)
				}
			} else if err != nil || got != ref {
				t.Errorf("%s n=%d: Count = %d, %v; unsplit evaluator = %d", c.name, n, got, err, ref)
			}
			if c.accept != nil {
				want := bruteCount(t, syn, c.accept)
				if got != want {
					t.Errorf("%s n=%d: Count = %d, brute force = %d", c.name, n, got, want)
				}
				if n == 5000 && (want == 0 || want == n) {
					t.Errorf("%s: brute force matched %d of %d; the case discriminates nothing", c.name, want, n)
				}
			}
			if raceEnabled {
				continue
			}
			allocs[n] = testing.AllocsPerRun(20, func() {
				if _, err := syn.Count(c.pred); (err != nil) != c.wantErr {
					t.Fatal(err)
				}
			})
		}
		if !raceEnabled && allocs[500] != allocs[5000] {
			t.Errorf("%s: %v allocs per Count at n=500, %v at n=5000", c.name, allocs[500], allocs[5000])
		}
	}
}

// bruteCount counts the sample tuples of syn that accept admits, reading
// each value on its own.
func bruteCount(t testing.TB, syn *sample.Synopsis, accept func(col func(table, column string) value.Value) bool) int {
	want := 0
	for _, st := range syn.Strata() {
		for i := range st.NumRows() {
			col := func(table, column string) value.Value {
				idx, err := syn.Schema.Resolve(expr.ColumnRef{Table: table, Column: column})
				if err != nil {
					t.Fatal(err)
				}
				return st.Value(i, idx)
			}
			if accept(col) {
				want++
			}
		}
	}
	return want
}

// BenchmarkSynopsisCount times the estimator's hot path: counting a
// predicate over a default-size lineitem synopsis. The sub-benchmarks are
// the filter shapes a count splits into — all prefix (Experiment 1's
// date ranges, and "residual", whose <> and Float bound push as well),
// prefix then residual — and a pruned CountStrata over two of four
// strata.
func BenchmarkSynopsisCount(b *testing.B) {
	db := countDB(b)
	syn, err := sample.BuildSynopsis(db, "lineitem", sample.DefaultSize, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	sharded, err := tpch.Generate(tpch.Config{Lines: 6000, Parts: 2000, PartCorrelation: 0.5, Partitions: 4, Seed: 2005})
	if err != nil {
		b.Fatal(err)
	}
	set, err := sample.BuildAll(sharded, sample.DefaultSize, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	shardedSyn, _ := set.Synopsis("lineitem")
	var mixed expr.Expr
	for _, c := range countCases() {
		if c.name == "mixed" {
			mixed = c.pred
		}
	}
	for _, c := range []struct {
		name   string
		syn    *sample.Synopsis
		pred   expr.Expr
		strata []int
	}{
		{"prefix-exp1", syn, tpch.Experiment1Predicate(60), nil},
		{"residual", syn, testkit.Expr("l_quantity <> 7 AND l_extendedprice < 50000.5"), nil},
		{"mixed", syn, mixed, nil},
		{"pruned-4shards", shardedSyn, mixed, []int{1, 2}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, _, _, err := c.syn.CountStrata(c.pred, c.strata); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
