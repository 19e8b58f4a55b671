package optimizer_test

import (
	"strings"
	"testing"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/optimizer"
	"robustqo/internal/sample"
	"robustqo/internal/sqlparse"
	"robustqo/internal/stats"
	"robustqo/internal/tpch"
)

// TestDashboardProjections pins the projection each serve.dashboard
// statement shape gets, on the data and estimator serve runs with
// (60,000 lines, seed 2005, threshold 0.8), and pins the EXPLAIN of the
// eight plans: pruning narrows what each leaf emits and leaves plan
// choice and plan text exactly as they were before any leaf was pruned.
func TestDashboardProjections(t *testing.T) {
	db, err := tpch.Generate(tpch.Config{Lines: 60000, Seed: 2005})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := sample.BuildAll(db, sample.DefaultSize, stats.NewRNG(2005^0xbeef))
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewBayesEstimator(syn, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sql     string
		leaves  []string // each leaf's table and emitted columns, in plan order
		explain string
	}{
		{
			"SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 24",
			[]string{"lineitem{}"},
			`Aggregate(COUNT(*))
  SeqScan(lineitem, filter=(l_quantity < 24))
`,
		},
		{
			"SELECT SUM(l_extendedprice) AS revenue FROM lineitem WHERE l_shipdate BETWEEN DATE '1995-03-01' AND DATE '1995-03-28'",
			[]string{"lineitem{l_extendedprice}"},
			`Aggregate(SUM(l_extendedprice))
  SeqScan(lineitem, filter=(l_shipdate BETWEEN date(9190) AND date(9217)))
`,
		},
		{
			"SELECT COUNT(*) AS n FROM lineitem, orders WHERE o_totalprice < 50000 AND l_quantity >= 15",
			[]string{"orders{o_orderkey}", "lineitem{l_orderkey}"},
			`Aggregate(COUNT(*))
  MergeJoin(orders.o_orderkey = lineitem.l_orderkey)
    SeqScan(orders, filter=(o_totalprice < 50000))
    SeqScan(lineitem, filter=(l_quantity >= 15))
`,
		},
		{
			"SELECT COUNT(*) AS n FROM lineitem, orders, part WHERE p_size < 20 AND l_quantity < 30",
			[]string{"part{p_partkey}", "lineitem{l_orderkey,l_partkey}", "orders{o_orderkey}"},
			`Aggregate(COUNT(*))
  MergeJoin(lineitem.l_orderkey = orders.o_orderkey)
    HashJoin(part.p_partkey = lineitem.l_partkey)
      SeqScan(part, filter=(p_size < 20))
      SeqScan(lineitem, filter=(l_quantity < 30))
    SeqScan(orders)
`,
		},
		{
			"SELECT SUM(l_extendedprice) AS revenue FROM lineitem WHERE l_shipdate BETWEEN DATE '1994-06-01' AND DATE '1994-08-31' AND l_receiptdate BETWEEN DATE '1994-06-20' AND DATE '1994-09-19'",
			[]string{"lineitem{l_extendedprice}"},
			`Aggregate(SUM(l_extendedprice))
  SeqScan(lineitem, filter=((l_shipdate BETWEEN date(8917) AND date(9008)) AND (l_receiptdate BETWEEN date(8936) AND date(9027))))
`,
		},
		{
			"SELECT l_quantity, COUNT(*) AS n FROM lineitem WHERE l_shipdate < DATE '1995-04-15' GROUP BY l_quantity",
			[]string{"lineitem{l_quantity}"},
			`Aggregate(COUNT(*) BY l_quantity)
  SeqScan(lineitem, filter=(l_shipdate < date(9235)))
`,
		},
		{
			"SELECT l_id, l_extendedprice FROM lineitem WHERE l_quantity < 15 ORDER BY l_extendedprice DESC LIMIT 10",
			[]string{"lineitem{l_id,l_extendedprice}"},
			`Project(l_id, l_extendedprice)
  Limit(10)
    Sort(l_extendedprice DESC) top=10
      SeqScan(lineitem, filter=(l_quantity < 15))
`,
		},
		{
			"SELECT SUM(l_extendedprice) AS revenue, COUNT(*) AS n FROM lineitem, orders, part WHERE p_attr1 < 500 AND p_attr2 BETWEEN 100 AND 499",
			[]string{"part{p_partkey}", "lineitem{l_orderkey,l_partkey,l_extendedprice}", "orders{o_orderkey}"},
			`Aggregate(SUM(l_extendedprice), COUNT(*))
  MergeJoin(lineitem.l_orderkey = orders.o_orderkey)
    HashJoin(part.p_partkey = lineitem.l_partkey)
      SeqScan(part, filter=((p_attr1 < 500) AND (p_attr2 BETWEEN 100 AND 499)))
      SeqScan(lineitem)
    SeqScan(orders)
`,
		},
	} {
		q, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := opt.Optimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Explain(); got != tc.explain {
			t.Errorf("%s: plan\n%swant\n%s", tc.sql, got, tc.explain)
			continue
		}
		var got []string
		var walk func(n engine.Node)
		walk = func(n engine.Node) {
			switch t := n.(type) {
			case *engine.Aggregate:
				walk(t.Input)
			case *engine.Project:
				walk(t.Input)
			case *engine.Limit:
				walk(t.Input)
			case *engine.Sort:
				walk(t.Input)
			case *engine.MergeJoin:
				walk(t.Left)
				walk(t.Right)
			case *engine.HashJoin:
				walk(t.Build)
				walk(t.Probe)
			case *engine.SeqScan:
				schema, _ := db.Catalog.Table(t.Table)
				names := make([]string, len(t.Emit))
				for i, c := range t.Emit {
					names[i] = schema.Columns[c].Name
				}
				if t.Emit == nil {
					names = []string{"*"}
				}
				got = append(got, t.Table+"{"+strings.Join(names, ",")+"}")
			default:
				got = append(got, n.Describe())
			}
		}
		walk(plan.Root)
		if strings.Join(got, " ") != strings.Join(tc.leaves, " ") {
			t.Errorf("%s: leaves emit %v, want %v", tc.sql, got, tc.leaves)
		}
	}
}
