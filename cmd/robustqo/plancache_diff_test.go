package main

// Differential tests for the serve-path plan cache: a plan served from
// the cache must be the plan a cold optimization builds for the same
// query — the same EXPLAIN and root estimate snapshot — and must compute
// byte-identical results (rows and cost counters). The corpus is the
// same 40-query workload `ledger run` executes, so all four shapes
// (range aggregate, date window, 2-way join, 3-way join) and their
// literal sweeps are covered; the date-window sweep repeats statements,
// so the hit path runs too.

import (
	"fmt"
	"testing"

	"robustqo/internal/engine"
	"robustqo/internal/optimizer"
	"robustqo/internal/plancache"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
)

// diffFixture builds a database, context, optimizer, and cache env for
// one (partitions, dop) configuration.
func diffFixture(t *testing.T, lines, partitions, dop int) (*engine.Context, *optimizer.Optimizer, plancache.Env) {
	t.Helper()
	db, err := tpch.Generate(tpch.Config{Lines: lines, Partitions: partitions, Seed: 2005})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	est, err := buildEstimator(db, "robust", 0.8, 500, 2005)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	opt.MaxDOP = dop
	env := plancache.Env{
		Ctx: ctx,
		Est: est,
		DOP: dop,
		Optimize: func(q *optimizer.Query) (*optimizer.Plan, error) {
			return opt.Optimize(q)
		},
	}
	return ctx, opt, env
}

// runFingerprint executes a plan and renders its full observable output
// — schema, every row, and the cost counters — as one string.
func runFingerprint(t *testing.T, ctx *engine.Context, root engine.Node) string {
	t.Helper()
	res, counters, _, err := engine.Run(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%v|%v|%+v", res.Schema, res.Rows, counters)
}

func TestPlanCacheDifferentialCorpus(t *testing.T) {
	for _, cfg := range []struct {
		name              string
		partitions, lines int
		dop               int
	}{
		{"dop1", 1, 20000, 1},
		{"dop2", 1, 20000, 2},
		{"dop4-partitioned", 4, 20000, 4},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			ctx, opt, env := diffFixture(t, cfg.lines, cfg.partitions, cfg.dop)
			cache := plancache.New(256, nil)
			outcomes := map[plancache.Outcome]int{}
			distinct := map[string]bool{}
			for qi, sqlText := range corpusQueries() {
				distinct[sqlText] = true
				qCold, err := sqlparse.Parse(sqlText)
				if err != nil {
					t.Fatalf("q%d parse: %v", qi, err)
				}
				qCached, err := sqlparse.Parse(sqlText)
				if err != nil {
					t.Fatal(err)
				}
				coldPlan, err := opt.Optimize(qCold)
				if err != nil {
					t.Fatalf("q%d cold optimize: %v", qi, err)
				}
				want := runFingerprint(t, ctx, coldPlan.Root)

				cachedPlan, outcome, err := cache.Plan(env, qCached)
				if err != nil {
					t.Fatalf("q%d cache: %v", qi, err)
				}
				outcomes[outcome]++
				if cachedEx, coldEx := cachedPlan.Explain(), coldPlan.Explain(); cachedEx != coldEx {
					t.Errorf("q%d (%s, outcome %v): cached EXPLAIN diverges from cold\ncold:\n%s\ncached:\n%s",
						qi, sqlText, outcome, coldEx, cachedEx)
				}
				snap, _ := cachedPlan.EstimateOf(cachedPlan.Root)
				coldSnap, _ := coldPlan.EstimateOf(coldPlan.Root)
				if snap != coldSnap {
					t.Errorf("q%d (%s, outcome %v): cached root snapshot %+v, cold %+v",
						qi, sqlText, outcome, snap, coldSnap)
				}
				got := runFingerprint(t, ctx, cachedPlan.Root)
				if got != want {
					t.Errorf("q%d (%s, outcome %v): cached plan diverges from cold plan\ncold:   %s\ncached: %s",
						qi, sqlText, outcome, want, got)
				}
			}
			// Each distinct statement is optimized once; its repeats hit.
			if outcomes[plancache.Miss] != len(distinct) || outcomes[plancache.Hit] != len(corpusQueries())-len(distinct) {
				t.Errorf("outcomes %v: want %d misses (one per distinct statement), the rest hits", outcomes, len(distinct))
			}
			if outcomes[plancache.Hit] == 0 {
				t.Errorf("outcomes %v: corpus never served a cached plan", outcomes)
			}
		})
	}
}

func TestPlanCacheInvalidationOnStatsRebuild(t *testing.T) {
	ctx, _, env := diffFixture(t, 4000, 1, 1)
	_ = ctx
	cache := plancache.New(64, nil)
	q := func() *optimizer.Query {
		p, err := sqlparse.Parse("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, out, err := cache.Plan(env, q()); err != nil || out != plancache.Miss {
		t.Fatalf("cold: %v %v", out, err)
	}
	if _, out, err := cache.Plan(env, q()); err != nil || out != plancache.Hit {
		t.Fatalf("warm: %v %v", out, err)
	}
	// A statistics rebuild (new synopses) invalidates every cached plan
	// even though the estimator name and layout are unchanged.
	cache.Invalidate()
	if _, out, err := cache.Plan(env, q()); err != nil || out != plancache.Miss {
		t.Fatalf("after stats rebuild: %v %v, want miss", out, err)
	}
}

func TestPlanCacheInvalidationOnPartitionChange(t *testing.T) {
	_, _, envFlat := diffFixture(t, 4000, 1, 1)
	_, _, envPart := diffFixture(t, 4000, 4, 1)
	cache := plancache.New(64, nil)
	q := func() *optimizer.Query {
		p, err := sqlparse.Parse("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, out, err := cache.Plan(envFlat, q()); err != nil || out != plancache.Miss {
		t.Fatalf("flat: %v %v", out, err)
	}
	// Re-partitioning changes the layout key: the flat entry must not be
	// served against the partitioned database.
	if _, out, err := cache.Plan(envPart, q()); err != nil || out != plancache.Miss {
		t.Fatalf("partitioned layout reused flat-layout plan: %v %v", out, err)
	}
	if _, out, err := cache.Plan(envPart, q()); err != nil || out != plancache.Hit {
		t.Fatalf("partitioned warm: %v %v", out, err)
	}
}
