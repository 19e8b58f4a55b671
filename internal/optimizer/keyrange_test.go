package optimizer_test

import (
	"testing"

	"robustqo/internal/engine"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
)

// TestIndexRangeEndsDoNotWrap: a comparison against a literal at an end
// of int64 plans an index range that holds exactly the keys it admits.
// Computing the range as lit + 1 wrapped l_partkey > MaxInt64 round to
// MinInt64 and returned every row.
func TestIndexRangeEndsDoNotWrap(t *testing.T) {
	_, opt := tpchOptimizer(t, tpch.Config{Lines: 20000}, 0.8, nil)
	for _, tc := range []struct {
		sql  string
		want int64
	}{
		{"SELECT COUNT(*) FROM lineitem WHERE l_partkey > 9223372036854775807", 0},
		{"SELECT COUNT(*) FROM lineitem WHERE 9223372036854775807 < l_partkey", 0},
		{"SELECT COUNT(*) FROM lineitem WHERE l_partkey < -9223372036854775807", 0},
		{"SELECT COUNT(*) FROM lineitem WHERE l_partkey <= 9223372036854775807", 20000},
	} {
		q, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		res, _, _, err := engine.Run(opt.Ctx, plan.Root)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].I; got != tc.want {
			t.Errorf("%s: COUNT(*) = %d, want %d\n%s", tc.sql, got, tc.want, plan.Explain())
		}
	}
}
