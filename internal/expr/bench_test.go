package expr

import (
	"testing"

	"robustqo/internal/stats"
)

// BenchmarkEvalBatch measures the column-vs-literal kernels, one per
// column kind, and the comparisons of computed vectors: Int arithmetic
// against a literal, a column against a column, and Float-times-Int
// arithmetic against an Int literal. Each runs over 1,024-row typed
// columns of testRelSchema with every row selected.
func BenchmarkEvalBatch(b *testing.B) {
	const n = 1024
	cols, _ := batchColumns(stats.NewRNG(779), n)
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	for _, bc := range []struct {
		name string
		e    Expr
	}{
		{"int", Cmp{Op: LT, L: TC("t", "a"), R: IntLit(5)}},
		{"date", Between{E: C("d"), Lo: DateLit(10), Hi: DateLit(35)}},
		{"float", Cmp{Op: GE, L: C("b"), R: FloatLit(0)}},
		{"string", Cmp{Op: NE, L: C("s"), R: StrLit("hello")}},
		{"generic", Cmp{Op: LT, L: Arith{Op: Add, L: TC("t", "a"), R: TC("u", "a")}, R: IntLit(9)}},
		{"col-col", Cmp{Op: EQ, L: TC("t", "a"), R: TC("u", "a")}},
		{"mixed-arith", Cmp{Op: LT, L: Arith{Op: Mul, L: C("b"), R: TC("t", "a")}, R: IntLit(3)}},
	} {
		bound, err := Bind(bc.e, testRelSchema())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bound.EvalBatch(cols, sel); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
