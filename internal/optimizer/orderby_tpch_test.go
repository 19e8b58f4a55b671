package optimizer_test

import (
	"reflect"
	"strings"
	"testing"

	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
)

// TestMergeJoinOrderSparesSort: a MergeJoin sorts both inputs on its
// key, so its rows come out ordered by lineitem.l_orderkey although the
// lineitem rows themselves are not. On robustqo sql's data and estimator
// the query plans no Sort, below the 0.8424 s of the plan that sorts the
// merge join's output again, and returns the rows that plan returns.
func TestMergeJoinOrderSparesSort(t *testing.T) {
	db, opt := tpchOptimizer(t, tpch.Config{Lines: 60000}, 0.8, nil)
	if lineitem, _ := db.Table("lineitem"); lineitem.NonDecreasing("l_orderkey") {
		t.Fatal("lineitem rows ordered by l_orderkey; the test needs them unordered")
	}
	q, err := sqlparse.Parse("SELECT l_id, o_orderkey FROM lineitem, orders WHERE l_id < 40000 ORDER BY lineitem.l_orderkey LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	var limit *engine.Limit
	if proj, ok := plan.Root.(*engine.Project); ok {
		limit, _ = proj.Input.(*engine.Limit)
	}
	if limit == nil || strings.Contains(plan.Explain(), "Sort") || !strings.Contains(plan.Explain(), "MergeJoin") {
		t.Fatalf("want Project over Limit over a MergeJoin and no Sort:\n%s", plan.Explain())
	}
	if !cost.Less(plan.EstCost, 0.8424) {
		t.Errorf("estimated cost %.4f s, want below the sorting plan's 0.8424 s", plan.EstCost)
	}
	got, _, _, err := engine.Run(opt.Ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	limit.Input = &engine.Sort{Input: limit.Input, By: q.OrderBy, TopK: q.Limit}
	want, _, _, err := engine.Run(opt.Ctx, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 5 || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Errorf("rows %v, with the Sort %v", got.Rows, want.Rows)
	}
}
