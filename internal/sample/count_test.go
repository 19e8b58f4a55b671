package sample_test

import (
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
// directly in Go over the synopsis columns, the brute force Count must
// agree with.
type countCase struct {
	name   string
	root   string
	pred   expr.Expr
	accept func(col func(table, column string) value.Value) bool
}

func countCases() []countCase {
	q3, q9 := value.DateFromCivil(1997, 7, 1), value.DateFromCivil(1997, 9, 30)
	in := func(v value.Value, lo, hi int64) bool { return v.I >= lo && v.I <= hi }
	return []countCase{
		{"eq", "lineitem", testkit.Expr("l_quantity = 10"),
			func(col func(string, string) value.Value) bool { return col("lineitem", "l_quantity").I == 10 }},
		{"between-and-eq", "lineitem",
			testkit.Expr("l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31' AND l_quantity = 7"),
			func(col func(string, string) value.Value) bool {
				return in(col("lineitem", "l_shipdate"), testkit.Date("1995-01-01"), testkit.Date("1996-12-31")) &&
					col("lineitem", "l_quantity").I == 7
			}},
		{"exp1", "lineitem", tpch.Experiment1Predicate(5),
			func(col func(string, string) value.Value) bool {
				return in(col("lineitem", "l_shipdate"), q3, q9) && in(col("lineitem", "l_receiptdate"), q3+5, q9+5)
			}},
		{"exp2", "lineitem", tpch.Experiment2Query(0).Pred,
			func(col func(string, string) value.Value) bool {
				return col("part", "p_attr1").I < tpch.PartWindow && in(col("part", "p_attr2"), 0, tpch.PartWindow-1)
			}},
	}
}

func countDB(t testing.TB) *storage.Database {
	t.Helper()
	db, err := tpch.Generate(tpch.Config{Lines: 6000, Parts: 2000, PartCorrelation: 0.5, Seed: 2005})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSynopsisCountAllocs: Count agrees with a brute-force count on the
// predicate shapes the benchmark and the paper's experiments generate,
// and its allocations do not grow with the sample — it is one bind plus
// one batch evaluation, whatever n is.
func TestSynopsisCountAllocs(t *testing.T) {
	db := countDB(t)
	for _, c := range countCases() {
		allocs := map[int]float64{}
		for _, n := range []int{500, 5000} {
			syn, err := sample.BuildSynopsis(db, c.root, n, stats.NewRNG(uint64(n)))
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for i := 0; i < syn.Size(); i++ {
				col := func(table, column string) value.Value {
					idx, err := syn.Schema.Resolve(expr.ColumnRef{Table: table, Column: column})
					if err != nil {
						t.Fatal(err)
					}
					return syn.Cols[idx][i]
				}
				if c.accept(col) {
					want++
				}
			}
			got, err := syn.Count(c.pred)
			if err != nil {
				t.Fatalf("%s n=%d: %v", c.name, n, err)
			}
			if got != want {
				t.Errorf("%s n=%d: Count = %d, brute force = %d", c.name, n, got, want)
			}
			if n == 5000 && (want == 0 || want == n) {
				t.Errorf("%s: brute force matched %d of %d; the case discriminates nothing", c.name, want, n)
			}
			allocs[n] = testing.AllocsPerRun(20, func() {
				if _, err := syn.Count(c.pred); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[500] != allocs[5000] {
			t.Errorf("%s: %v allocs per Count at n=500, %v at n=5000", c.name, allocs[500], allocs[5000])
		}
	}
}

// BenchmarkSynopsisCount times the estimator's hot path: one Count of a
// BETWEEN-and-equality predicate over a default-size lineitem synopsis.
func BenchmarkSynopsisCount(b *testing.B) {
	db := countDB(b)
	syn, err := sample.BuildSynopsis(db, "lineitem", sample.DefaultSize, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	pred := countCases()[1].pred
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := syn.Count(pred); err != nil {
			b.Fatal(err)
		}
	}
}
