package core

import (
	"math"
	"strings"
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/expr"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// partFactDB builds a fact table range-partitioned on f_key into 4 equal
// shards (keys 0..399, bounds 100/200/300), with a payload column f_a the
// test predicates filter on and a foreign key f_dim into a 50-row dim
// table, so join requests are rooted at the partitioned table.
func partFactDB(t *testing.T, n int) *storage.Database {
	t.Helper()
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	dim, err := db.CreateTable(&catalog.TableSchema{
		Name: "dim",
		Columns: []catalog.Column{
			{Name: "d_id", Type: catalog.Int},
			{Name: "d_attr", Type: catalog.Int},
		},
		PrimaryKey: "d_id",
	})
	if err != nil {
		t.Fatal(err)
	}
	fact, err := db.CreateTable(&catalog.TableSchema{
		Name: "fact",
		Columns: []catalog.Column{
			{Name: "f_id", Type: catalog.Int},
			{Name: "f_key", Type: catalog.Int},
			{Name: "f_a", Type: catalog.Int},
			{Name: "f_dim", Type: catalog.Int},
		},
		PrimaryKey: "f_id",
		Foreign:    []catalog.ForeignKey{{Column: "f_dim", RefTable: "dim"}},
		Partition: &catalog.PartitionSpec{
			Column: "f_key", Kind: catalog.RangePartition, Partitions: 4, Bounds: []int64{100, 200, 300},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 50; d++ {
		_ = dim.Append(value.Row{value.Int(int64(d)), value.Int(int64(d % 10))})
	}
	rng := stats.NewRNG(77)
	for i := 0; i < n; i++ {
		_ = fact.Append(value.Row{
			value.Int(int64(i)),
			value.Int(int64(testkit.Intn(rng, 400))),
			value.Int(int64(testkit.Intn(rng, 100))),
			value.Int(int64(testkit.Intn(rng, 50))),
		})
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	return db
}

// partFactEstimator builds partFactDB's statistics and a Bayes estimator
// over them at T = 80%.
func partFactEstimator(t *testing.T) (*BayesEstimator, *sample.Synopsis) {
	t.Helper()
	db := partFactDB(t, 4000)
	syns, err := sample.BuildAll(db, 400, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewBayesEstimator(syns, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	syn, _ := syns.Synopsis("fact")
	return e, syn
}

// observation is one Observe answer.
type observation struct{ k, n, pop int }

func observe(t *testing.T, e *BayesEstimator, req Request) observation {
	t.Helper()
	k, n, pop, err := e.Observe(req)
	if err != nil {
		t.Fatal(err)
	}
	return observation{k, n, pop}
}

// TestObserveSumsShardPseudoCounts pins the posterior combination rule:
// observing over all shards reproduces the sum of the per-stratum counts,
// and observing a subset sums only that subset.
func TestObserveSumsShardPseudoCounts(t *testing.T) {
	e, syn := partFactEstimator(t)
	pred := testkit.Expr("f_a < 30")
	var want observation
	var strata [4]observation
	for p := range strata {
		k, n, pop, err := syn.CountStrata(pred, []int{p})
		if err != nil {
			t.Fatal(err)
		}
		strata[p] = observation{k, n, pop}
		want = observation{want.k + k, want.n + n, want.pop + pop}
	}
	if want.pop != 4000 || want.n != syn.Size() {
		t.Fatalf("strata sum to n=%d pop=%d, synopsis has %d over 4000", want.n, want.pop, syn.Size())
	}
	if got := observe(t, e, Request{Tables: []string{"fact"}, Pred: pred, Partitions: []int{0, 1, 2, 3}}); got != want {
		t.Fatalf("all-shard observe %v, want %v", got, want)
	}
	// A subset sums only the listed shards.
	if got := observe(t, e, Request{Tables: []string{"fact"}, Pred: pred, Partitions: []int{1}}); got != strata[1] {
		t.Fatalf("single-shard observe %v, want %v", got, strata[1])
	}
	// nil reads the same one sample: every stratum.
	if got := observe(t, e, Request{Tables: []string{"fact"}, Pred: pred}); got != want {
		t.Fatalf("nil observe %v, want the all-strata sum %v", got, want)
	}
}

// TestObserveNilIsEveryShard is the one-sample contract at the estimator:
// Partitions nil and [0..P-1] give identical (k, n, population) for a
// single-table and an FK-join request rooted at the partitioned table.
func TestObserveNilIsEveryShard(t *testing.T) {
	e, _ := partFactEstimator(t)
	for _, req := range []Request{
		{Tables: []string{"fact"}, Pred: testkit.Expr("f_a < 40 AND f_key >= 120")},
		{Tables: []string{"fact", "dim"}, Pred: testkit.Expr("d_attr = 3 AND f_a < 70")},
	} {
		unpruned := observe(t, e, req)
		req.Partitions = []int{0, 1, 2, 3}
		if all := observe(t, e, req); all != unpruned {
			t.Errorf("%v: nil %v != every shard %v", req.Tables, unpruned, all)
		}
		if unpruned.k == 0 || unpruned.k == unpruned.n {
			t.Errorf("%v: k=%d of %d discriminates nothing", req.Tables, unpruned.k, unpruned.n)
		}
	}
}

// TestObserveRejectsBadPartitions: a shard the statistics do not have, or
// one listed twice, fails the estimate instead of observing nothing or
// counting a stratum twice.
func TestObserveRejectsBadPartitions(t *testing.T) {
	e, _ := partFactEstimator(t)
	for _, c := range []struct {
		parts []int
		want  string
	}{
		{[]int{6}, "no stratum 6"},
		{[]int{0, -1}, "no stratum -1"},
		{[]int{1, 1}, "stratum 1 listed twice"},
	} {
		req := Request{Tables: []string{"fact"}, Pred: testkit.Expr("f_a < 30"), Partitions: c.parts}
		if _, _, _, err := e.Observe(req); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Observe(%v): err = %v, want %q", c.parts, err, c.want)
		}
		if _, err := e.Estimate(req); err == nil {
			t.Errorf("Estimate(%v) succeeded", c.parts)
		}
	}
}

// TestPruningTightensEstimate is the gating property: with a predicate
// that constrains the partition key, the T-quantile row estimate over the
// surviving shards must be <= the unpruned (nil) estimate. Both read the
// same sample, and pruned shards cannot contribute matches (the key
// predicate excludes them), so pruning removes only non-matching samples:
// same k, smaller n and smaller population.
func TestPruningTightensEstimate(t *testing.T) {
	e0, _ := partFactEstimator(t)
	// Equality on the partition key: only shard 1 can match.
	pred := testkit.Expr("f_key = 150 AND f_a < 50")
	prunedReq := Request{Tables: []string{"fact"}, Pred: pred, Partitions: []int{1}}
	unprunedReq := Request{Tables: []string{"fact"}, Pred: pred}
	pruned, unpruned := observe(t, e0, prunedReq), observe(t, e0, unprunedReq)
	if pruned.k != unpruned.k || pruned.n >= unpruned.n || pruned.pop >= unpruned.pop {
		t.Fatalf("pruning should drop only non-matching samples: pruned %v, unpruned %v", pruned, unpruned)
	}
	for _, threshold := range []ConfidenceThreshold{0.5, 0.8, 0.95} {
		e, err := e0.WithThreshold(threshold)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.Estimate(prunedReq)
		if err != nil {
			t.Fatal(err)
		}
		u, err := e.Estimate(unprunedReq)
		if err != nil {
			t.Fatal(err)
		}
		if p.Rows > u.Rows {
			t.Errorf("T=%v: pruned estimate %.2f rows exceeds unpruned %.2f", threshold, p.Rows, u.Rows)
		}
	}
}

// TestObserveUnpartitionedIsOneStratum: an unpartitioned root is one
// stratum, so naming its shard 0 reads the whole sample, exactly as nil.
func TestObserveUnpartitionedIsOneStratum(t *testing.T) {
	db := corrDB(t, 500, 10)
	syns, err := sample.BuildAll(db, 200, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewBayesEstimator(syns, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	pred := testkit.Expr("f_a < 10")
	one := observe(t, e, Request{Tables: []string{"fact"}, Pred: pred, Partitions: []int{0}})
	whole := observe(t, e, Request{Tables: []string{"fact"}, Pred: pred})
	if one != whole || whole.n != 200 || whole.pop != 500 {
		t.Fatalf("stratum 0 observe %v != whole-sample %v (want n=200 pop=500)", one, whole)
	}
}

// TestPartitionedRootFallbacksReadStrata: the estimators that read a
// synopsis without a shard list — group counting and the
// independent-samples fallback — read the partitioned root's strata,
// because there is no other sample of it.
func TestPartitionedRootFallbacksReadStrata(t *testing.T) {
	e, syn := partFactEstimator(t)
	sumN := 0
	for p := 0; p < 4; p++ {
		_, n, _, err := syn.CountStrata(nil, []int{p})
		if err != nil {
			t.Fatal(err)
		}
		sumN += n
	}
	if syn.Size() != sumN {
		t.Fatalf("synopsis Size %d, strata hold %d", syn.Size(), sumN)
	}
	groupBy := []expr.ColumnRef{{Table: "fact", Column: "f_a"}}
	groups, err := e.EstimateGroups([]string{"fact"}, groupBy)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := GroupByCardinality(syn, groupBy); groups != want {
		t.Errorf("EstimateGroups = %g, GEE over the strata = %g", groups, want)
	}

	indep := &IndependentSamplesEstimator{Samples: e.Synopses, Catalog: e.Synopses.Catalog(), Prior: Jeffreys, Threshold: 0.8}
	pred := testkit.Expr("f_a < 30")
	est, err := indep.Estimate(Request{Tables: []string{"fact"}, Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	k, n, pop, err := syn.CountStrata(pred, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RobustSelectivity(k, n, Jeffreys, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if n != sumN || math.Abs(est.Selectivity-want) > 1e-12 || math.Abs(est.Rows-want*float64(pop)) > 1e-6 {
		t.Errorf("independent estimate %+v, want sel %g over k=%d of n=%d (pop %d)", est, want, k, n, pop)
	}
}
