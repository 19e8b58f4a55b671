package optimizer

import (
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/stats"
)

// TestPlanJoinKeysAreIntegers: every join key in the plans Optimize
// returns over both oracle worlds, at every threshold and at MaxDOP 1
// and 4, resolves to an Int or Date column — the rule the engine's join
// operators enforce at Open, so no plan the optimizer emits fails it.
func TestPlanJoinKeysAreIntegers(t *testing.T) {
	for _, w := range oracleWorlds(t) {
		joins := map[string]int{}
		key := func(n engine.Node, in engine.Node, ref expr.ColumnRef) {
			t.Helper()
			schema, err := in.Schema(w.ctx)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := schema.Resolve(ref)
			if err != nil {
				t.Fatalf("%s: %v", n.Describe(), err)
			}
			if typ := schema.Fields[idx].Type; typ != catalog.Int && typ != catalog.Date {
				t.Errorf("%s: %s: key %s is %s", w.name, n.Describe(), ref, typ)
			}
		}
		var walk func(n engine.Node)
		walk = func(n engine.Node) {
			switch j := n.(type) {
			case *engine.HashJoin:
				key(n, j.Build, j.BuildCol)
				key(n, j.Probe, j.ProbeCol)
				joins["HashJoin"]++
			case *engine.MergeJoin:
				key(n, j.Left, j.LeftCol)
				key(n, j.Right, j.RightCol)
				joins["MergeJoin"]++
			case *engine.INLJoin:
				key(n, j.Outer, j.OuterCol)
				joins["INLJoin"]++
			case *engine.StarSemiJoin:
				for _, d := range j.Dims {
					key(n, d.Scan, d.DimPK)
				}
				joins["StarSemiJoin"]++
			}
			for _, c := range engine.Children(n) {
				walk(c)
			}
		}
		for _, dop := range []int{1, 4} {
			for _, thr := range oracleThresholds {
				o := w.optimizer(t, thr)
				o.MaxDOP = dop
				rng := stats.NewRNG(31)
				for range w.trials {
					plan, err := o.Optimize(w.query(rng))
					if err != nil {
						t.Fatal(err)
					}
					walk(plan.Root)
				}
			}
		}
		if len(joins) == 0 {
			t.Errorf("%s: no join in any plan; the rule went unchecked", w.name)
		}
		t.Logf("%s: join keys checked per operator: %v", w.name, joins)
	}
}
