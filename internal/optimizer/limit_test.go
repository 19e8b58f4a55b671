package optimizer_test

import (
	"testing"

	"robustqo/internal/engine"
	"robustqo/internal/plancache"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
)

// TestLimitZeroReturnsNoRows: a parsed LIMIT 0 returns no rows through
// Parse, Optimize and Run — over an aggregate, whose one row it drops,
// and under an ORDER BY — while the same statement without a LIMIT
// returns its rows, and the two normalize to different plan-cache
// templates.
func TestLimitZeroReturnsNoRows(t *testing.T) {
	_, opt := tpchOptimizer(t, tpch.Config{Lines: 5000}, 0.8, nil)
	for _, tc := range []struct {
		sql  string
		rows int
	}{
		{"SELECT COUNT(*) FROM lineitem", 1},
		{"SELECT l_id FROM lineitem WHERE l_id < 3 ORDER BY l_id DESC", 3},
	} {
		var keys [2]string
		for i, suffix := range []string{"", " LIMIT 0"} {
			q, err := sqlparse.Parse(tc.sql + suffix)
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
			if want := tc.rows * (1 - i); len(res.Rows) != want {
				t.Errorf("%s%s: %d rows, want %d\n%s", tc.sql, suffix, len(res.Rows), want, plan.Explain())
			}
			keys[i] = plancache.Normalize(q).Key
		}
		if keys[0] == keys[1] {
			t.Errorf("%s: LIMIT 0 and no LIMIT share the template %q", tc.sql, keys[0])
		}
	}
}
