package plancache

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/engine"
	"robustqo/internal/obs"
	"robustqo/internal/optimizer"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// env wires a cache environment over the test database.
func testEnv(t *testing.T, ctx *engine.Context, est *optimizer.Optimizer) Env {
	t.Helper()
	return Env{
		Ctx: ctx,
		Est: est.Est,
		DOP: est.MaxDOP,
		Optimize: func(q *optimizer.Query) (*optimizer.Plan, error) {
			return est.Optimize(q)
		},
	}
}

// shipWindow is the one-conjunct key-range template most cache tests
// bind: l_ship BETWEEN lo AND hi.
func shipWindow(lo, hi int) *optimizer.Query {
	return &optimizer.Query{
		Tables: []string{"lineitem"},
		Pred:   testkit.Expr(fmt.Sprintf("l_ship BETWEEN %d AND %d", lo, hi)),
	}
}

// TestCacheHitMissLadder walks bindings of one template through the
// cache: a binding is a Hit exactly when it was planned before, and a
// hit serves the very plan object its miss built. The pruning-change
// input binds windows that prune to different shards of a partitioned
// table; each is its own entry like any other binding.
func TestCacheHitMissLadder(t *testing.T) {
	type step struct {
		lo, hi int
		want   Outcome
	}
	for _, tc := range []struct {
		name         string
		lines, parts int
		seed         uint64
		steps        []step
	}{
		{"unpartitioned", 8000, 1, 11, []step{
			{100, 300, Miss}, {100, 300, Hit}, {200, 400, Miss}, {0, 950, Miss},
			{100, 300, Hit}, {200, 400, Hit}, {0, 950, Hit},
		}},
		// Shards cover [0,250) [250,500) [500,750) [750,1000): the first
		// window prunes to shard 0, the second to shard 2.
		{"pruning-change", 4000, 4, 5, []step{
			{10, 240, Miss}, {510, 740, Miss}, {10, 240, Hit}, {510, 740, Hit},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, ctx := cacheDB(t, tc.lines, tc.parts)
			opt, err := optimizer.New(ctx, bayes(t, db, 0.8, 512, tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			c := New(64, reg)
			env := testEnv(t, ctx, opt)
			planned := map[[2]int]*optimizer.Plan{}
			var hits, misses int64
			for _, st := range tc.steps {
				p, out, err := c.Plan(env, shipWindow(st.lo, st.hi))
				if err != nil {
					t.Fatal(err)
				}
				if out != st.want {
					t.Fatalf("[%d,%d]: %v, want %v", st.lo, st.hi, out, st.want)
				}
				k := [2]int{st.lo, st.hi}
				if out == Hit {
					hits++
					if p != planned[k] {
						t.Errorf("[%d,%d]: hit served a different plan object than its miss built", st.lo, st.hi)
					}
				} else {
					misses++
					planned[k] = p
				}
			}
			if got := reg.Counter("robustqo_plancache_hits_total").Value(); got != hits {
				t.Errorf("hits_total = %d, want %d", got, hits)
			}
			if got := reg.Counter("robustqo_plancache_misses_total").Value(); got != misses {
				t.Errorf("misses_total = %d, want %d", got, misses)
			}
		})
	}
}

// TestCachedPlanIsColdPlan: the plan served for a binding carries that
// binding's own estimates — rows, cost and the root's snapshot, whose
// fingerprint files the execution's actuals in the feedback ledger —
// exactly as a cold optimization of it does. Planning [100,300] first
// must not leak its estimates into the plan served for [200,400], on the
// miss that plans it or on the hit that repeats it.
func TestCachedPlanIsColdPlan(t *testing.T) {
	db, ctx := cacheDB(t, 8000, 1)
	opt, err := optimizer.New(ctx, bayes(t, db, 0.8, 512, 11))
	if err != nil {
		t.Fatal(err)
	}
	c := New(64, obs.NewRegistry())
	env := testEnv(t, ctx, opt)
	for _, w := range [][2]int{{100, 300}, {200, 400}, {200, 400}} {
		p, out, err := c.Plan(env, shipWindow(w[0], w[1]))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := opt.Optimize(shipWindow(w[0], w[1]))
		if err != nil {
			t.Fatal(err)
		}
		if p.EstRows != cold.EstRows || p.EstCost != cold.EstCost {
			t.Errorf("%v (%v): served plan estimates %.2f rows / %.4f s, cold plan %.2f / %.4f",
				w, out, p.EstRows, p.EstCost, cold.EstRows, cold.EstCost)
		}
		snap, _ := p.EstimateOf(p.Root)
		coldSnap, _ := cold.EstimateOf(cold.Root)
		if snap != coldSnap {
			t.Errorf("%v (%v): served root snapshot %+v, cold %+v", w, out, snap, coldSnap)
		}
	}
}

// TestCachedOutcomesDoNoPlanningWork states the plan cache's reason to
// exist as a count instead of a timing: a Hit never calls the cold-path
// optimizer and never inverts a posterior (the estimator's quantile
// cache sees no lookups at all), while a Miss optimizes exactly once.
func TestCachedOutcomesDoNoPlanningWork(t *testing.T) {
	db, ctx := cacheDB(t, 8000, 1)
	est := bayes(t, db, 0.8, 512, 11)
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	c := New(64, obs.NewRegistry())
	env := testEnv(t, ctx, opt)
	optimizes := 0
	cold := env.Optimize
	env.Optimize = func(q *optimizer.Query) (*optimizer.Plan, error) {
		optimizes++
		return cold(q)
	}
	quantileLookups := func() int64 {
		hits, misses := est.Quantiles.Stats()
		return hits + misses
	}
	// The TestCacheHitMissLadder ladder.
	for _, step := range []struct {
		lo, hi int
		want   Outcome
	}{
		{100, 300, Miss}, {100, 300, Hit}, {200, 400, Miss}, {0, 950, Miss}, {0, 950, Hit}, {200, 400, Hit},
	} {
		optBefore, quantBefore := optimizes, quantileLookups()
		_, out, err := c.Plan(env, shipWindow(step.lo, step.hi))
		if err != nil {
			t.Fatal(err)
		}
		if out != step.want {
			t.Fatalf("[%d,%d]: %v, want %v", step.lo, step.hi, out, step.want)
		}
		calls := optimizes - optBefore
		if out.Cached() {
			if calls != 0 {
				t.Errorf("%v called Optimize %d times, want 0", out, calls)
			}
			if q := quantileLookups(); q != quantBefore {
				t.Errorf("%v made %d quantile-cache lookups, want 0", out, q-quantBefore)
			}
		} else {
			if calls != 1 {
				t.Errorf("%v called Optimize %d times, want 1", out, calls)
			}
			// The cold path does look quantiles up, so the zero above is a
			// live counter standing still.
			if quantileLookups() == quantBefore {
				t.Errorf("%v made no quantile-cache lookups; the counter is not wired", out)
			}
		}
	}
}

// TestCacheVariantsKeepHotBinding: a template's bindings are independent
// entries with no per-template bound, so a hot binding still hits, with
// the plan its miss built, after a dozen other bindings of its template
// have been planned.
func TestCacheVariantsKeepHotBinding(t *testing.T) {
	db, ctx := cacheDB(t, 8000, 1)
	opt, err := optimizer.New(ctx, bayes(t, db, 0.8, 512, 11))
	if err != nil {
		t.Fatal(err)
	}
	c := New(1024, obs.NewRegistry())
	env := testEnv(t, ctx, opt)

	hot, out, err := c.Plan(env, shipWindow(100, 300))
	if err != nil || out != Miss {
		t.Fatalf("hot cold: %v %v", out, err)
	}
	const adHoc = 12
	for i := 0; i < adHoc; i++ {
		if _, out, err := c.Plan(env, shipWindow(i*50, i*50+400)); err != nil || out != Miss {
			t.Fatalf("ad-hoc binding %d: %v %v, want miss", i, out, err)
		}
	}
	p, out, err := c.Plan(env, shipWindow(100, 300))
	if err != nil || out != Hit || p != hot {
		t.Fatalf("hot after %d ad-hoc bindings: %v %v, same plan %v; want a hit on its own plan", adHoc, out, err, p == hot)
	}
	if c.Len() != adHoc+1 {
		t.Errorf("cache holds %d entries, want %d", c.Len(), adHoc+1)
	}
}

func TestCacheInvalidate(t *testing.T) {
	db, ctx := cacheDB(t, 2000, 1)
	est := bayes(t, db, 0.8, 256, 3)
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	c := New(64, obs.NewRegistry())
	env := testEnv(t, ctx, opt)
	q := &optimizer.Query{Tables: []string{"lineitem"}, Pred: testkit.Expr("l_qty < 10")}

	if _, out, err := c.Plan(env, q); err != nil || out != Miss {
		t.Fatalf("first: %v %v", out, err)
	}
	if _, out, err := c.Plan(env, q); err != nil || out != Hit {
		t.Fatalf("second: %v %v", out, err)
	}
	// Statistics rebuilt -> every cached plan is stale.
	c.Invalidate()
	if _, out, err := c.Plan(env, q); err != nil || out != Miss {
		t.Fatalf("after invalidate: %v %v", out, err)
	}
}

func TestCacheKeySeparatesEstimatorDOPLayout(t *testing.T) {
	db, ctx := cacheDB(t, 2000, 1)
	opt1, err := optimizer.New(ctx, bayes(t, db, 0.8, 256, 3))
	if err != nil {
		t.Fatal(err)
	}
	opt2, err := optimizer.New(ctx, bayes(t, db, 0.95, 256, 3))
	if err != nil {
		t.Fatal(err)
	}
	c := New(64, obs.NewRegistry())
	q := &optimizer.Query{Tables: []string{"lineitem"}, Pred: testkit.Expr("l_qty < 10")}

	if _, out, _ := c.Plan(testEnv(t, ctx, opt1), q); out != Miss {
		t.Fatalf("T=0.8 first: %v", out)
	}
	// Different confidence threshold -> different estimator name ->
	// different key.
	if _, out, _ := c.Plan(testEnv(t, ctx, opt2), q); out != Miss {
		t.Fatalf("T=0.95 must not share the T=0.8 entry: %v", out)
	}
	// Different DOP -> different key (Exchange placement is baked in).
	env4 := testEnv(t, ctx, opt1)
	env4.DOP = 4
	if _, out, _ := c.Plan(env4, q); out != Miss {
		t.Fatalf("DOP=4 must not share the DOP=1 entry: %v", out)
	}
	// Different partition layout -> different key.
	db2, ctx2 := cacheDB(t, 2000, 4)
	optP, err := optimizer.New(ctx2, bayes(t, db2, 0.8, 256, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, out, _ := c.Plan(testEnv(t, ctx2, optP), q); out != Miss {
		t.Fatalf("partitioned layout must not share the unpartitioned entry: %v", out)
	}
	if c.Len() != 4 {
		t.Errorf("expected 4 distinct entries, have %d", c.Len())
	}
}

func TestCacheEviction(t *testing.T) {
	db, ctx := cacheDB(t, 1000, 1)
	opt, err := optimizer.New(ctx, bayes(t, db, 0.8, 128, 3))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := New(numShards, reg) // 1 entry per shard
	env := testEnv(t, ctx, opt)
	for i := 0; i < 64; i++ {
		q := &optimizer.Query{
			Tables: []string{"lineitem"},
			// Vary the shape (chain length) so each query is a distinct
			// template.
			Pred:  testkit.Expr("l_qty < 10"),
			Limit: i + 1,
		}
		if _, _, err := c.Plan(env, q); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > numShards {
		t.Errorf("cache holds %d entries, bound is %d", c.Len(), numShards)
	}
	if reg.Counter("robustqo_plancache_evictions_total").Value() == 0 {
		t.Error("no evictions recorded despite overflow")
	}
}

func TestCacheConcurrent(t *testing.T) {
	db, ctx := cacheDB(t, 4000, 1)
	est := bayes(t, db, 0.8, 256, 9)
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	c := New(128, obs.NewRegistry())
	env := testEnv(t, ctx, opt)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				lo := (g*8 + i) % 30 * 10
				plan, _, err := c.Plan(env, shipWindow(lo, lo+200))
				if err != nil {
					errs <- err
					return
				}
				if _, _, _, err := engine.Run(ctx, plan.Root); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzPlanCacheKey: two bindings of one template share a cache key
// exactly when paramsEqual holds, and paramsEqual holds exactly when the
// slot payloads match — floats by bit pattern. The template has two
// String slots, then an Int, a Date and a Float slot; swap passes the
// Int and Date slots each other's kind, which Template.Bind must coerce
// back. The seeds cover strings holding the key's separator and kind
// bytes and string pairs that concatenate alike, −0 against +0, and
// NaNs.
func FuzzPlanCacheKey(f *testing.F) {
	tpl := Normalize(&optimizer.Query{
		Tables: []string{"t"},
		Pred:   testkit.Expr("s = 'x' AND u = 'y' AND a < 1 AND b < DATE '1995-01-01' AND c < 2.5"),
	})
	negZero, otherNaN := math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001)
	f.Add("x", "y", int64(1), int64(9131), 2.5, false, "x", "y", int64(1), int64(9131), 2.5, true)
	f.Add("x", "y", int64(1), int64(9131), 2.5, false, "x", "y", int64(1), int64(9132), 2.5, false)
	f.Add("x", "y", int64(31), int64(0), 2.5, false, "x", "y", int64(0), int64(31), 2.5, false)
	f.Add("x", "y", int64(1), int64(9131), negZero, false, "x", "y", int64(1), int64(9131), 0.0, false)
	f.Add("x", "y", int64(1), int64(9131), math.NaN(), true, "x", "y", int64(1), int64(9131), math.NaN(), false)
	f.Add("x", "y", int64(1), int64(9131), math.NaN(), false, "x", "y", int64(1), int64(9131), otherNaN, false)
	f.Add("a\x1f", "b", int64(1), int64(9131), 2.5, false, "a", "\x1fb", int64(1), int64(9131), 2.5, false)
	f.Add("ab", "c", int64(1), int64(9131), 2.5, false, "a", "bc", int64(1), int64(9131), 2.5, false)
	// The key writes each slot's kind byte before its payload.
	kind := string(rune(catalog.String))
	f.Add("a"+kind, "b", int64(1), int64(9131), 2.5, false, "a", kind+"b", int64(1), int64(9131), 2.5, false)
	f.Fuzz(func(t *testing.T, s1, u1 string, i1, d1 int64, f1 float64, swap1 bool, s2, u2 string, i2, d2 int64, f2 float64, swap2 bool) {
		bind := func(s, u string, i, d int64, fl float64, swap bool) (string, []value.Value) {
			iv, dv := value.Int(i), value.Date(d)
			if swap {
				iv, dv = value.Date(i), value.Int(d)
			}
			q, err := tpl.Bind([]value.Value{value.Str(s), value.Str(u), iv, dv, value.Float(fl)})
			if err != nil {
				t.Fatal(err)
			}
			n := Normalize(q)
			if n.Key != tpl.Key || !reflect.DeepEqual(n.Kinds, tpl.Kinds) {
				t.Fatalf("bound query normalizes to %q %v, template %q %v", n.Key, n.Kinds, tpl.Key, tpl.Kinds)
			}
			return fullKey(n, "est", 2, "layout"), n.Params
		}
		k1, p1 := bind(s1, u1, i1, d1, f1, swap1)
		k2, p2 := bind(s2, u2, i2, d2, f2, swap2)
		same := s1 == s2 && u1 == u2 && i1 == i2 && d1 == d2 && math.Float64bits(f1) == math.Float64bits(f2)
		if eq := paramsEqual(p1, p2); eq != same {
			t.Fatalf("paramsEqual(%v, %v) = %v, want %v", p1, p2, eq, same)
		}
		if (k1 == k2) != same {
			t.Fatalf("bindings %v and %v: keys equal %v, want %v", p1, p2, k1 == k2, same)
		}
	})
}
