package plancache

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"robustqo/internal/engine"
	"robustqo/internal/obs"
	"robustqo/internal/optimizer"
	"robustqo/internal/testkit"
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

func TestCacheHitRebindReject(t *testing.T) {
	db, ctx := cacheDB(t, 8000, 1)
	est := bayes(t, db, 0.8, 512, 11)
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := New(64, reg)
	env := testEnv(t, ctx, opt)

	mk := func(lo, hi int) *optimizer.Query {
		return &optimizer.Query{
			Tables: []string{"lineitem"},
			Pred:   testkit.Expr(fmt.Sprintf("l_ship BETWEEN %d AND %d", lo, hi)),
		}
	}

	// Cold: miss.
	p1, out, err := c.Plan(env, mk(100, 300))
	if err != nil {
		t.Fatal(err)
	}
	if out != Miss {
		t.Fatalf("first call: %v, want miss", out)
	}

	// Identical binding: hit, same plan pointer.
	p2, out, err := c.Plan(env, mk(100, 300))
	if err != nil {
		t.Fatal(err)
	}
	if out != Hit {
		t.Fatalf("identical binding: %v, want hit", out)
	}
	if p2 != p1 {
		t.Error("hit returned a different plan object")
	}

	// Equal-selectivity shift: the point estimate stays inside the 95%
	// credible interval, so the plan re-binds without re-optimizing.
	p3, out, err := c.Plan(env, mk(200, 400))
	if err != nil {
		t.Fatal(err)
	}
	if out != Rebind {
		t.Fatalf("shifted binding: %v, want rebind", out)
	}
	if p3 == p1 {
		t.Error("rebind returned the original plan object (literals would be stale)")
	}
	if reflect.TypeOf(p3.Root) != reflect.TypeOf(p1.Root) {
		t.Errorf("rebind changed the plan shape: %T vs %T", p3.Root, p1.Root)
	}

	// The rebound plan must compute exactly what a cold plan computes.
	coldPlan, err := opt.Optimize(mk(200, 400))
	if err != nil {
		t.Fatal(err)
	}
	gotRes, _, _, err := engine.Run(ctx, p3.Root)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, _, _, err := engine.Run(ctx, coldPlan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRes.Rows) != len(wantRes.Rows) {
		t.Fatalf("rebound plan returned %d rows, cold plan %d", len(gotRes.Rows), len(wantRes.Rows))
	}

	// A drastically wider window moves the estimate far outside the
	// interval: reject + re-optimize.
	_, out, err = c.Plan(env, mk(0, 950))
	if err != nil {
		t.Fatal(err)
	}
	if out != Reject {
		t.Fatalf("wide binding: %v, want reject", out)
	}

	if got := reg.Counter("robustqo_plancache_hits_total").Value(); got != 1 {
		t.Errorf("hits_total = %d, want 1", got)
	}
	if got := reg.Counter("robustqo_plancache_rebinds_total").Value(); got != 1 {
		t.Errorf("rebinds_total = %d, want 1", got)
	}
	if got := reg.Counter("robustqo_plancache_interval_rejects_total").Value(); got != 1 {
		t.Errorf("interval_rejects_total = %d, want 1", got)
	}
}

// TestCachedOutcomesDoNoPlanningWork states the plan cache's reason to
// exist as a count instead of a timing: a Hit or Rebind never calls the
// cold-path optimizer and never inverts a posterior (the estimator's
// quantile cache sees no lookups at all), while a Miss or Reject
// optimizes exactly once.
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
	// The TestCacheHitRebindReject ladder, then a repeat of the rejected
	// binding, which its new variant now serves.
	for _, step := range []struct {
		lo, hi int
		want   Outcome
	}{
		{100, 300, Miss}, {100, 300, Hit}, {200, 400, Rebind}, {0, 950, Reject}, {0, 950, Hit},
	} {
		optBefore, quantBefore := optimizes, quantileLookups()
		_, out, err := c.Plan(env, &optimizer.Query{
			Tables: []string{"lineitem"},
			Pred:   testkit.Expr(fmt.Sprintf("l_ship BETWEEN %d AND %d", step.lo, step.hi)),
		})
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

// TestCacheRebindRestampsZones: two bindings of one key-range template
// with equal selectivity skip different numbers of segments. The second
// re-binds the first's plan, and its scan must keep the late mode and
// report its own zone arithmetic, exactly as a cold plan of it does.
func TestCacheRebindRestampsZones(t *testing.T) {
	db, ctx := zoneDB(t)
	opt, err := optimizer.New(ctx, bayes(t, db, 0.8, 512, 11))
	if err != nil {
		t.Fatal(err)
	}
	c := New(64, obs.NewRegistry())
	env := testEnv(t, ctx, opt)
	mk := func(lo int) *optimizer.Query {
		return &optimizer.Query{
			Tables: []string{"seg"},
			Pred:   testkit.Expr(fmt.Sprintf("s_key BETWEEN %d AND %d", lo, lo+2999)),
		}
	}
	// [100, 3099] lies inside segment 0; [3000, 5999] spans segments 0-1.
	if _, out, err := c.Plan(env, mk(100)); err != nil || out != Miss {
		t.Fatalf("first: %v %v", out, err)
	}
	p, out, err := c.Plan(env, mk(3000))
	if err != nil {
		t.Fatal(err)
	}
	if out != Rebind {
		t.Fatalf("shifted binding: %v, want rebind", out)
	}
	cold, err := opt.Optimize(mk(3000))
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := p.Root.(*engine.SeqScan)
	coldScan, coldOK := cold.Root.(*engine.SeqScan)
	if !ok || !coldOK {
		t.Fatalf("roots %T / %T, want SeqScans", p.Root, cold.Root)
	}
	if scan.Mode != engine.ScanLate || coldScan.Mode != engine.ScanLate {
		t.Fatalf("modes %v (re-bound) / %v (cold), want late", scan.Mode, coldScan.Mode)
	}
	est, _ := p.EstimateOf(scan)
	coldEst, _ := cold.EstimateOf(coldScan)
	if coldEst.SegsSkipped != 2 || coldEst.SegsTotal != 4 {
		t.Fatalf("fixture: cold plan skips %d/%d segments, want 2/4", coldEst.SegsSkipped, coldEst.SegsTotal)
	}
	if est.SegsSkipped != coldEst.SegsSkipped || est.SegsTotal != coldEst.SegsTotal {
		t.Fatalf("re-bound plan reports segments %d/%d skipped, cold plan %d/%d",
			est.SegsSkipped, est.SegsTotal, coldEst.SegsSkipped, coldEst.SegsTotal)
	}
}

func TestCacheVariantsKeepHotBinding(t *testing.T) {
	db, ctx := cacheDB(t, 8000, 1)
	est := bayes(t, db, 0.8, 512, 11)
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	c := New(64, obs.NewRegistry())
	env := testEnv(t, ctx, opt)
	mk := func(lo, hi int) *optimizer.Query {
		return &optimizer.Query{
			Tables: []string{"lineitem"},
			Pred:   testkit.Expr(fmt.Sprintf("l_ship BETWEEN %d AND %d", lo, hi)),
		}
	}

	if _, out, err := c.Plan(env, mk(100, 300)); err != nil || out != Miss {
		t.Fatalf("hot cold: %v %v", out, err)
	}
	// A far-away binding rejects and is retained as a second variant...
	if _, out, err := c.Plan(env, mk(0, 950)); err != nil || out != Reject {
		t.Fatalf("ad-hoc: %v %v", out, err)
	}
	// ...WITHOUT displacing the hot binding: both now hit.
	if _, out, err := c.Plan(env, mk(100, 300)); err != nil || out != Hit {
		t.Fatalf("hot after ad-hoc reject: %v %v, want hit", out, err)
	}
	if _, out, err := c.Plan(env, mk(0, 950)); err != nil || out != Hit {
		t.Fatalf("ad-hoc repeat: %v %v, want hit", out, err)
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

func TestCachePruningChangeRejects(t *testing.T) {
	db, ctx := cacheDB(t, 4000, 4)
	est := bayes(t, db, 0.8, 512, 5)
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c := New(64, reg)
	env := testEnv(t, ctx, opt)
	mk := func(lo, hi int) *optimizer.Query {
		return &optimizer.Query{
			Tables: []string{"lineitem"},
			Pred:   testkit.Expr(fmt.Sprintf("l_ship BETWEEN %d AND %d", lo, hi)),
		}
	}
	// Shards cover [0,250) [250,500) [500,750) [750,1000): the first
	// window prunes to shard 0, the second to shard 2 — same shape,
	// similar selectivity, incompatible shard lists.
	if _, out, err := c.Plan(env, mk(10, 240)); err != nil || out != Miss {
		t.Fatalf("first: %v %v", out, err)
	}
	_, out, err := c.Plan(env, mk(510, 740))
	if err != nil {
		t.Fatal(err)
	}
	if out != Reject {
		t.Fatalf("pruning-changing binding: %v, want reject", out)
	}
	if got := reg.Counter("robustqo_plancache_pruning_rejects_total").Value(); got != 1 {
		t.Errorf("pruning_rejects_total = %d, want 1", got)
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
				q := &optimizer.Query{
					Tables: []string{"lineitem"},
					Pred:   testkit.Expr(fmt.Sprintf("l_ship BETWEEN %d AND %d", lo, lo+200)),
				}
				plan, _, err := c.Plan(env, q)
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
