package engine

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// TestExchangeSerialFallback pins the degradation contract: DOP < 2, or a
// source that cannot be morselized, runs as a pure pass-through with the
// source's own serial operator.
func TestExchangeSerialFallback(t *testing.T) {
	_, ctx := testDB(t, 300, 3, 10)
	pred := expr.Between{E: expr.C("l_ship"), Lo: expr.IntLit(5), Hi: expr.IntLit(60)}
	serial := &SeqScan{Table: "lineitem", Filter: pred}
	sres, sc, _, err := Run(ctx, serial)
	if err != nil {
		t.Fatal(err)
	}
	cases := []Node{
		&Exchange{Source: &SeqScan{Table: "lineitem", Filter: pred}, DOP: 1},
		&Exchange{Source: &SeqScan{Table: "lineitem", Filter: pred}, DOP: 0},
		// Filter is not a morselSource, so this must fall back even at DOP 4.
		&Exchange{Source: &Filter{Input: &SeqScan{Table: "lineitem"}, Pred: pred}, DOP: 4},
	}
	for i, n := range cases[:2] {
		res, c, _, err := Run(ctx, n)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(res.Rows) != len(sres.Rows) || c != sc {
			t.Fatalf("case %d: rows %d vs %d, counters %+v vs %+v", i, len(res.Rows), len(sres.Rows), c, sc)
		}
	}
	res, _, _, err := Run(ctx, cases[2])
	if err != nil {
		t.Fatal(err)
	}
	sameRowMultiset(t, res.Rows, sres.Rows, "filter fallback")
}

// TestUnbindableFilterFailsAtOpen pins where a scan binds its predicate:
// once, at Open, with the binding handed to the first worker. A filter or
// residual that cannot bind must fail the Open serially and under an
// Exchange — including on a zero-morsel scan, where no worker is ever
// created to bind it.
func TestUnbindableFilterFailsAtOpen(t *testing.T) {
	_, ctx := testDB(t, 300, 3, 10)
	bad := testkit.Expr("no_such_col < 5")
	ship := KeyRange{Column: "l_ship", Lo: 10, Hi: 60}
	scans := map[string]func(parts []int) Node{
		"SeqScan": func(parts []int) Node {
			return &SeqScan{Table: "lineitem", Filter: bad, Partitions: parts}
		},
		"IndexRangeScan": func(parts []int) Node {
			return &IndexRangeScan{Table: "lineitem", Range: ship, Residual: bad, Partitions: parts}
		},
		"IndexIntersect": func(parts []int) Node {
			return &IndexIntersect{Table: "lineitem", Ranges: []KeyRange{ship}, Residual: bad, Partitions: parts}
		},
	}
	for name, scan := range scans {
		for _, parts := range [][]int{nil, {}} {
			for _, dop := range []int{0, 2} {
				n := scan(parts)
				if dop > 0 {
					n = &Exchange{Source: n, DOP: dop}
				}
				op := n.Stream()
				var c cost.Counters
				err := op.Open(ctx, &c)
				op.Close()
				if err == nil || !strings.Contains(err.Error(), "no_such_col") {
					t.Errorf("%s parts=%v dop=%d: Open returned %v, want the bind error", name, parts, dop, err)
				}
			}
		}
	}
}

// TestExchangeEarlyClose pins, for every morsel source and for a hash
// join probing one, that a pipeline stopping before the source is drained
// — a LIMIT above the Exchange, or a worker failing mid-morsel — shuts the
// worker pool down without leaking goroutines or deadlocking (undelivered
// morsel batches are drained back to the pool on the way), and returns
// what the serial pipeline returns: the same prefix of rows, or the same
// error. A case's src builds its plan with wrap around the scan that runs
// in parallel.
func TestExchangeEarlyClose(t *testing.T) {
	_, ctx := testDB(t, 3000, 3, 10)
	cctx := fixture{orders: 3398, lines: 3, parts: 10, shards: 2, clustered: true}.build(t)
	ship := KeyRange{Column: "l_ship", Lo: 10, Hi: 90}
	cases := []struct {
		name  string
		ctx   *Context
		limit int
		src   func(wrap func(Node) Node) Node
	}{
		{"SeqScan", ctx, BatchSize + 7, func(wrap func(Node) Node) Node { return wrap(&SeqScan{Table: "lineitem"}) }},
		// A pushable prefix whose zones skip the first tiles of each shard.
		{"SeqScan/late/2-shard", cctx, BatchSize + 7, func(wrap func(Node) Node) Node {
			return wrap(&SeqScan{Table: "lineitem", Filter: testkit.Expr("l_ship >= 20")})
		}},
		{"IndexRangeScan", ctx, BatchSize + 7, func(wrap func(Node) Node) Node {
			return wrap(&IndexRangeScan{Table: "lineitem", Range: ship})
		}},
		{"IndexIntersect", ctx, BatchSize + 7, func(wrap func(Node) Node) Node {
			return wrap(&IndexIntersect{Table: "lineitem", Ranges: []KeyRange{ship, {Column: "l_receipt", Lo: 0, Hi: 200}}})
		}},
		// The LIMIT stops a serial join whose probe is the Exchange.
		{"HashJoin", ctx, BatchSize + 7, func(wrap func(Node) Node) Node {
			return &HashJoin{
				Build: &SeqScan{Table: "orders"}, Probe: wrap(&SeqScan{Table: "lineitem"}),
				BuildCol: expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
				ProbeCol: expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
			}
		}},
		// Row 5000 fails, in the first window of the second morsel; the
		// limit lies beyond it, so both pipelines must reach the error.
		{"SeqScan/worker-error", ctx, 6000, func(wrap func(Node) Node) Node {
			return wrap(&SeqScan{Table: "lineitem", Filter: testkit.Expr("100 / (l_id - 5000) >= 0")})
		}},
	}
	serial := func(n Node) Node { return n }
	parallel := func(n Node) Node { return &Exchange{Source: n, DOP: 4} }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sres, _, _, serr := Run(tc.ctx, &Limit{Input: tc.src(serial), N: tc.limit})
			if (serr != nil) != (tc.limit == 6000) || serr == nil && len(sres.Rows) != tc.limit {
				t.Fatalf("fixture: serial returned %v, %v", sres, serr)
			}
			before := runtime.NumGoroutine()
			for i := 0; i < 25; i++ {
				plan := &Limit{Input: tc.src(parallel), N: tc.limit}
				pres, _, _, err := Run(tc.ctx, plan)
				if serr != nil {
					if err == nil || err.Error() != serr.Error() {
						t.Fatalf("iter %d: error %v, want %v", i, err, serr)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(pres.Rows) != len(sres.Rows) {
					t.Fatalf("iter %d: %d rows, want %d", i, len(pres.Rows), len(sres.Rows))
				}
				for r := range pres.Rows {
					if rowKey(pres.Rows[r]) != rowKey(sres.Rows[r]) {
						t.Fatalf("iter %d: row %d differs", i, r)
					}
				}
			}
			// All pools were shut down at Close; allow the runtime a moment
			// to retire the exited goroutines.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before+2 {
				t.Fatalf("goroutines leaked: %d before, %d after", before, n)
			}
		})
	}
}

// TestBatchPoolReuse pins the sync.Pool plumbing: a batch released with
// putBatch comes back from getBatch with its column capacity intact and
// its contents cleared.
func TestBatchPoolReuse(t *testing.T) {
	_, ctx := testDB(t, 50, 2, 5)
	schema, err := (&SeqScan{Table: "lineitem"}).Schema(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b := getBatch(schema)
	if b.Len() != 0 || len(b.Cols()) != len(schema.Fields) {
		t.Fatalf("fresh batch: len=%d cols=%d", b.Len(), len(b.Cols()))
	}
	row := make(value.Row, len(schema.Fields))
	for i := 0; i < 10; i++ {
		addRow(b, row)
	}
	putBatch(b)
	b2 := getBatch(schema)
	if b2.Len() != 0 {
		t.Fatalf("pooled batch not cleared: len=%d", b2.Len())
	}
	if c := &b2.Cols()[0]; c.Len() != 0 || cap(c.I) < BatchSize {
		t.Fatalf("pooled batch: column 0 holds %d values, capacity %d", c.Len(), cap(c.I))
	}
	putBatch(b2)
	putBatch(nil) // must be a no-op
}
