package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/core"
	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// The plan-space oracle checks the search, not the candidate generators:
// it builds every plan accessPaths, joinCandidates and starCandidates can
// emit, keeping every candidate of every table subset, and charges finish
// on each full-query candidate alone. Optimize, which keeps one candidate
// per ordering and picks its root after finish, must cost exactly the
// cheapest of them.

// oracleCheapest returns the least finished cost over q's unpruned plan
// space under o.
func oracleCheapest(t testing.TB, o *Optimizer, q *Query) float64 {
	t.Helper()
	p, err := o.newPlanner(q)
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.a.tables)
	full := uint32(1)<<n - 1
	best := make(map[uint32][]candidate)
	// A mask's proper subsets are smaller numbers, so ascending masks
	// meet their parts first.
	for mask := uint32(1); mask <= full; mask++ {
		var cands []candidate
		add := func(more []candidate, err error) {
			if err != nil {
				t.Fatal(err)
			}
			cands = append(cands, more...)
		}
		switch {
		case mask&(mask-1) == 0:
			add(p.accessPaths(bits.TrailingZeros32(mask)))
		case p.a.connected(mask):
			for i := range n {
				if rest := mask &^ (1 << uint(i)); rest != mask && p.a.connected(rest) {
					add(p.joinCandidates(rest, i, best))
				}
			}
			add(p.starCandidates(mask, best))
		}
		best[mask] = cands
	}
	least := math.Inf(1)
	for _, c := range best[full] {
		_, total, _, err := p.finish([]candidate{c})
		if err != nil {
			t.Fatal(err)
		}
		least = math.Min(least, total)
	}
	return least
}

// oracleWorld is a database, its synopses and a generator of queries
// over it shaped like the benchmark's.
type oracleWorld struct {
	name  string
	ctx   *engine.Context
	syns  *sample.Set
	query func(rng *stats.RNG) *Query
	// trials is how many queries TestPlanSpaceOracle draws; a four-dim
	// star's unpruned space is some 18,000 candidates.
	trials int
}

// optimizer returns an optimizer over w with the robust estimator at T.
func (w *oracleWorld) optimizer(t testing.TB, threshold float64) *Optimizer {
	t.Helper()
	est, err := core.NewBayesEstimator(w.syns, core.ConfidenceThreshold(threshold))
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(w.ctx, &groupsMemo{BayesEstimator: est, groups: make(map[string]float64)})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// groupsMemo is the robust estimator with EstimateGroups memoized: the
// oracle finishes each of up to 18,000 candidates on its own, and every
// finish of a GROUP BY query asks the same question of the synopsis.
type groupsMemo struct {
	*core.BayesEstimator
	groups map[string]float64
}

func (g *groupsMemo) EstimateGroups(tables []string, groupBy []expr.ColumnRef) (float64, error) {
	key := fmt.Sprint(tables, groupBy)
	if n, ok := g.groups[key]; ok {
		return n, nil
	}
	n, err := g.BayesEstimator.EstimateGroups(tables, groupBy)
	if err == nil {
		g.groups[key] = n
	}
	return n, err
}

// oracleWorlds builds the tpch-shaped world (lineitem, orders, part; one
// to three tables) and the star world (a fact and one to four dims).
func oracleWorlds(t testing.TB) []*oracleWorld {
	t.Helper()
	db, ctx := optDB(t, 20000, 40)
	tpch := &oracleWorld{name: "tpch", ctx: ctx, syns: buildSynopses(t, db), query: tpchQuery, trials: 60}
	db, ctx = starDB(t, 4, 20000, 200)
	star := &oracleWorld{name: "star", ctx: ctx, syns: buildSynopses(t, db), query: starQuery, trials: 24}
	return []*oracleWorld{tpch, star}
}

func buildSynopses(t testing.TB, db *storage.Database) *sample.Set {
	t.Helper()
	syns, err := sample.BuildAll(db, 300, stats.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	return syns
}

// starDB builds a fact table referencing dims dimension tables through
// indexed foreign keys. Each dimension's d_attr marks a tenth of its
// rows, which a selective predicate picks.
func starDB(t testing.TB, dims, factRows, dimRows int) (*storage.Database, *engine.Context) {
	t.Helper()
	db := storage.NewDatabase(catalog.NewCatalog())
	rng := stats.NewRNG(23)
	factCols := []catalog.Column{{Name: "f_id", Type: catalog.Int}, {Name: "f_m", Type: catalog.Float}}
	var fks []catalog.ForeignKey
	var ixs []catalog.Index
	for d := range dims {
		name := fmt.Sprintf("dim%d", d+1)
		tab, err := db.CreateTable(&catalog.TableSchema{
			Name:       name,
			Columns:    []catalog.Column{{Name: "d_id", Type: catalog.Int}, {Name: "d_attr", Type: catalog.Int}},
			PrimaryKey: "d_id",
			Ordered:    []string{"d_id"},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range dimRows {
			if err := tab.Append(value.Row{value.Int(int64(i)), value.Int(int64(i % 10))}); err != nil {
				t.Fatal(err)
			}
		}
		fk := fmt.Sprintf("f_dim%d", d+1)
		factCols = append(factCols, catalog.Column{Name: fk, Type: catalog.Int})
		fks = append(fks, catalog.ForeignKey{Column: fk, RefTable: name})
		ixs = append(ixs, catalog.Index{Name: "ix_" + fk, Column: fk, Kind: catalog.NonClustered})
	}
	fact, err := db.CreateTable(&catalog.TableSchema{
		Name: "fact", Columns: factCols, PrimaryKey: "f_id", Foreign: fks, Indexes: ixs, Ordered: []string{"f_id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range factRows {
		row := value.Row{value.Int(int64(i)), value.Float(rng.Float64() * 100)}
		for range dims {
			row = append(row, value.Int(int64(testkit.Intn(rng, dimRows))))
		}
		if err := fact.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	return db, ctx
}

// tpchQuery draws a query over optDB: a connected set of one to three
// tables, a few range and equality conjuncts, and sometimes a GROUP BY,
// an ascending or descending ORDER BY — mostly on a key, where orderings
// matter — and a LIMIT.
func tpchQuery(rng *stats.RNG) *Query {
	tables := [][]string{{"lineitem"}, {"orders"}, {"part"}, {"lineitem", "orders"}, {"lineitem", "part"}, {"lineitem", "orders", "part"}}[testkit.Intn(rng, 6)]
	window := func(table, col string, span, width int) expr.Expr {
		lo := int64(testkit.Intn(rng, span))
		return expr.Between{E: expr.TC(table, col), Lo: expr.IntLit(lo), Hi: expr.IntLit(lo + int64(testkit.Intn(rng, width)))}
	}
	less := func(table, col string, v expr.Expr) expr.Expr {
		return expr.Cmp{Op: expr.LT, L: expr.TC(table, col), R: v}
	}
	var terms []expr.Expr
	var keys []expr.ColumnRef
	for _, tab := range tables {
		switch tab {
		case "lineitem":
			for _, c := range []func() expr.Expr{
				func() expr.Expr { return window(tab, "l_ship", 1000, 600) },
				func() expr.Expr { return window(tab, "l_receipt", 1000, 600) },
				func() expr.Expr { return less(tab, "l_price", expr.FloatLit(rng.Float64()*100)) },
				func() expr.Expr { return window(tab, "l_partkey", 200, 4) },
			} {
				if testkit.Intn(rng, 3) == 0 {
					terms = append(terms, c())
				}
			}
			keys = append(keys, expr.ColumnRef{Table: tab, Column: "l_id"}, expr.ColumnRef{Table: tab, Column: "l_orderkey"},
				expr.ColumnRef{Table: tab, Column: "l_partkey"}, expr.ColumnRef{Table: tab, Column: "l_ship"})
		case "orders":
			if testkit.Intn(rng, 2) == 0 {
				terms = append(terms, less(tab, "o_total", expr.FloatLit(rng.Float64()*1000)))
			}
			keys = append(keys, expr.ColumnRef{Table: tab, Column: "o_orderkey"})
		case "part":
			if testkit.Intn(rng, 2) == 0 {
				terms = append(terms, less(tab, "p_size", expr.IntLit(int64(testkit.Intn(rng, 50)))))
			}
			keys = append(keys, expr.ColumnRef{Table: tab, Column: "p_partkey"})
		}
	}
	q := &Query{Tables: tables, Pred: expr.Conj(terms...)}
	shape(rng, q, keys)
	return q
}

// starQuery draws a star query: the fact and one to four dimensions,
// each dimension cut to a few d_attr values, sometimes a fact measure
// cut, and the same finishing clauses as tpchQuery.
func starQuery(rng *stats.RNG) *Query {
	q := &Query{Tables: []string{"fact"}}
	keys := []expr.ColumnRef{{Table: "fact", Column: "f_id"}}
	var terms []expr.Expr
	for d := range 1 + testkit.Intn(rng, 4) {
		dim := fmt.Sprintf("dim%d", d+1)
		q.Tables = append(q.Tables, dim)
		keys = append(keys, expr.ColumnRef{Table: dim, Column: "d_id"}, expr.ColumnRef{Table: "fact", Column: fmt.Sprintf("f_dim%d", d+1)})
		if testkit.Intn(rng, 4) > 0 {
			terms = append(terms, expr.Cmp{Op: expr.LT, L: expr.TC(dim, "d_attr"), R: expr.IntLit(int64(1 + testkit.Intn(rng, 3)))})
		}
	}
	if testkit.Intn(rng, 3) == 0 {
		terms = append(terms, expr.Cmp{Op: expr.LT, L: expr.TC("fact", "f_m"), R: expr.FloatLit(rng.Float64() * 100)})
	}
	q.Pred = expr.Conj(terms...)
	shape(rng, q, keys)
	return q
}

// shape adds the finishing clauses: a GROUP BY a fifth of the time, an
// ORDER BY on one of keys three quarters of the time (ascending twice as
// often as descending, now and then on two keys), and a LIMIT a third of
// the time.
func shape(rng *stats.RNG, q *Query, keys []expr.ColumnRef) {
	key := keys[testkit.Intn(rng, len(keys))]
	if testkit.Intn(rng, 5) == 0 {
		q.GroupBy = []expr.ColumnRef{key}
		q.Aggs = []engine.AggSpec{{Func: engine.Count, As: "n"}}
	}
	if k := testkit.Intn(rng, 4); k > 0 {
		q.OrderBy = []engine.SortKey{{Col: key, Desc: k == 3}}
		if q.GroupBy == nil && testkit.Intn(rng, 5) == 0 {
			q.OrderBy = append(q.OrderBy, engine.SortKey{Col: keys[testkit.Intn(rng, len(keys))]})
		}
	}
	if testkit.Intn(rng, 3) == 0 {
		q.Limit = 1 + testkit.Intn(rng, 50)
	}
}

// checkOracle fails t unless Optimize costs q at the oracle's minimum,
// and returns that cost.
func checkOracle(t testing.TB, o *Optimizer, q *Query) float64 {
	t.Helper()
	plan, err := o.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	least := oracleCheapest(t, o, q)
	if !cost.ApproxEqual(plan.EstCost, least) {
		t.Errorf("%s: %v where %v order %v limit %d group %v: Optimize costs %.6g, the plan space's cheapest %.6g\n%s",
			o.Est.Name(), q.Tables, q.Pred, q.OrderBy, q.Limit, q.GroupBy, plan.EstCost, least, plan.Explain())
	}
	return plan.EstCost
}

var oracleThresholds = []float64{0.05, 0.5, 0.95}

// TestPlanSpaceOracle: on generated tpch and star queries at T = 5%, 50%
// and 95%, the plan Optimize returns costs exactly the cheapest plan of
// the unpruned space, ORDER BY sorts charged. The same queries, those
// without a GROUP BY, also hold the precondition of the paper's §3
// substitution end to end: the chosen plan's cost never falls as T
// rises.
func TestPlanSpaceOracle(t *testing.T) {
	for _, w := range oracleWorlds(t) {
		opts := make([]*Optimizer, len(oracleThresholds))
		for i, thr := range oracleThresholds {
			opts[i] = w.optimizer(t, thr)
		}
		rng := stats.NewRNG(31)
		ascending := 0
		for range w.trials {
			q := w.query(rng)
			if len(q.OrderBy) == 1 && !q.OrderBy[0].Desc && q.GroupBy == nil {
				ascending++
			}
			prev := 0.0
			for i, o := range opts {
				c := checkOracle(t, o, q)
				if q.GroupBy == nil && cost.Less(c, prev) {
					t.Errorf("%s: %v where %v order %v limit %d: cost falls from %.6g to %.6g as T rises to %g",
						w.name, q.Tables, q.Pred, q.OrderBy, q.Limit, prev, c, oracleThresholds[i])
				}
				prev = c
			}
		}
		if ascending < 3 {
			t.Errorf("%s: only %d queries with one ascending ORDER BY key; the sort charge goes untested", w.name, ascending)
		}
	}
}

// FuzzPlanSpaceOracle checks TestPlanSpaceOracle's exactness on fuzzed
// draws: the world, the generator's random stream and T.
func FuzzPlanSpaceOracle(f *testing.F) {
	worlds := oracleWorlds(f)
	f.Add(uint8(0), uint64(1), uint16(3000))
	f.Add(uint8(1), uint64(2), uint16(60000))
	f.Fuzz(func(t *testing.T, world uint8, seed uint64, rawT uint16) {
		w := worlds[int(world)%len(worlds)]
		q := w.query(stats.NewRNG(seed))
		checkOracle(t, w.optimizer(t, (float64(rawT)+0.5)/65536), q)
	})
}
