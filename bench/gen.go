package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"robustqo/internal/optimizer"
	"robustqo/internal/tpch"
	"robustqo/internal/value"
)

// request is one operation of a workload's fixed, seeded request list.
type request struct {
	spec querySpec
	sql  string
	// tpl numbers the statement shape within the workload; prepared
	// requests of one tpl share a server-side prepared statement.
	tpl      int
	prepared bool
	// threshold is the confidence threshold the request asks for; 0 means
	// the system's default (0.8).
	threshold float64
	// query is set by paper.crossover, whose statements come from package
	// tpch as optimizer queries and are never parsed.
	query *optimizer.Query
	// slice names the part of a workload's mix the request belongs to.
	slice string

	// Filled in from the reference evaluator before any request is sent.
	wantRows  []value.Row
	wantCount int
}

// key tells apart the requests that may be answered differently: the
// statement and the threshold it is planned under.
func (r *request) key() string { return fmt.Sprintf("%s|%g", r.sql, r.threshold) }

// The generated data covers ship dates 1992-01-01 to 1998-08-02.
var (
	dateLo   = days(1992, time.January, 1)
	dateSpan = days(1998, time.August, 2) - dateLo
)

const (
	serveLines    = 60000
	columnarLines = 240000
	priceLo       = 900.0
	priceSpan     = 100000.0
)

var (
	countStar = aggSpec{fn: "COUNT", col: -1, as: "n"}
	sumPrice  = aggSpec{fn: "SUM", col: col("l_extendedprice"), as: "revenue"}
)

func between(c string, lo, hi lit) cond { return cond{col: col(c), op: "between", lo: lo, hi: hi} }
func cmp(c, op string, v lit) cond      { return cond{col: col(c), op: op, lo: v} }

// zipf draws a rank in [0,n) with probability proportional to 1/(rank+1)^s.
func zipf(rng *rand.Rand, n int, s float64) int {
	total := 0.0
	for r := 1; r <= n; r++ {
		total += 1 / math.Pow(float64(r), s)
	}
	u := rng.Float64() * total
	for r := 1; r <= n; r++ {
		u -= 1 / math.Pow(float64(r), s)
		if u <= 0 {
			return r - 1
		}
	}
	return n - 1
}

func finish(rng *rand.Rand, reqs []request) []request {
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	for i := range reqs {
		reqs[i].sql = reqs[i].spec.sql()
	}
	return reqs
}

// dashboardTemplates are the eight statement shapes of serve.dashboard.
// Each returns one binding; the parameter ranges keep a shape's bindings
// at similar selectivity, so the latency mix depends on the shape shares
// (which are fixed) and not on which bindings a seed happens to draw.
var dashboardTemplates = []func(rng *rand.Rand) querySpec{
	// The four corpus shapes of cmd/benchserve.
	func(rng *rand.Rand) querySpec {
		return querySpec{tables: []string{"lineitem"}, aggs: []aggSpec{countStar}, orderBy: -1,
			conds: []cond{cmp("l_quantity", "<", intLit(int64(20+rng.Intn(10))))}}
	},
	func(rng *rand.Rand) querySpec {
		d := dateLo + int64(rng.Intn(int(dateSpan)-30))
		return querySpec{tables: []string{"lineitem"}, aggs: []aggSpec{sumPrice}, orderBy: -1,
			conds: []cond{between("l_shipdate", dateLit(d), dateLit(d+27))}}
	},
	func(rng *rand.Rand) querySpec {
		return querySpec{tables: []string{"lineitem", "orders"}, aggs: []aggSpec{countStar}, orderBy: -1,
			conds: []cond{
				cmp("o_totalprice", "<", intLit(int64(45000+rng.Intn(10000)))),
				cmp("l_quantity", ">=", intLit(int64(12+rng.Intn(6)))),
			}}
	},
	func(rng *rand.Rand) querySpec {
		return querySpec{tables: []string{"lineitem", "orders", "part"}, aggs: []aggSpec{countStar}, orderBy: -1,
			conds: []cond{
				cmp("p_size", "<", intLit(int64(18+rng.Intn(7)))),
				cmp("l_quantity", "<", intLit(int64(28+rng.Intn(7)))),
			}}
	},
	// The two-date-range shape of the paper's Experiment 1.
	func(rng *rand.Rand) querySpec {
		d := dateLo + int64(rng.Intn(int(dateSpan)-160))
		shift := int64(10 + rng.Intn(20))
		return querySpec{tables: []string{"lineitem"}, aggs: []aggSpec{sumPrice}, orderBy: -1,
			conds: []cond{
				between("l_shipdate", dateLit(d), dateLit(d+91)),
				between("l_receiptdate", dateLit(d+shift), dateLit(d+91+shift)),
			}}
	},
	// GROUP BY.
	func(rng *rand.Rand) querySpec {
		d := dateLo + dateSpan/2 + int64(rng.Intn(200)) - 100
		return querySpec{tables: []string{"lineitem"}, aggs: []aggSpec{countStar}, orderBy: -1,
			groupBy: []int{col("l_quantity")},
			conds:   []cond{cmp("l_shipdate", "<", dateLit(d))}}
	},
	// ORDER BY ... LIMIT top-K.
	func(rng *rand.Rand) querySpec {
		return querySpec{tables: []string{"lineitem"}, orderBy: col("l_extendedprice"), desc: true, limit: 10,
			project: []int{col("l_id"), col("l_extendedprice")},
			conds:   []cond{cmp("l_quantity", "<", intLit(int64(10+rng.Intn(10))))}}
	},
	// A three-way join with both predicates on the dimension.
	func(rng *rand.Rand) querySpec {
		x := int64(rng.Intn(500))
		return querySpec{tables: []string{"lineitem", "orders", "part"}, aggs: []aggSpec{sumPrice, countStar}, orderBy: -1,
			conds: []cond{
				cmp("p_attr1", "<", intLit(int64(450+rng.Intn(100)))),
				between("p_attr2", intLit(x), intLit(x+399)),
			}}
	},
}

const (
	dashboardBindings    = 8
	dashboardPerTemplate = 64
)

// genDashboard builds the serve.dashboard list: every shape has the same
// share of the list, and within a shape eight hot bindings repeat with
// Zipf(1.1) popularity. Odd shapes go through /prepare and /exec.
func genDashboard(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	var reqs []request
	for t, bind := range dashboardTemplates {
		hot := make([]querySpec, dashboardBindings)
		for i := range hot {
			hot[i] = bind(rng)
		}
		for i := 0; i < dashboardPerTemplate; i++ {
			reqs = append(reqs, request{spec: hot[zipf(rng, len(hot), 1.1)], tpl: t, prepared: t%2 == 1})
		}
	}
	return finish(rng, reqs)
}

// adhocThresholds are the confidence thresholds serve.adhoc asks for.
var adhocThresholds = []float64{0.05, 0.5, 0.8, 0.95}

// adhocRequests is the length of the serve.adhoc list. Every request has
// a statement shape of its own, so the list holds three times as many
// templates as the server's 1,024-entry plan cache.
const adhocRequests = 3072

// domain describes the values a column takes in the 60,000-line data the
// server generates, for drawing literals: values lie in [lo, lo+span).
type domain struct{ lo, span float64 }

func columnDomain(c int) domain {
	switch columns[c].name {
	case "p_partkey", "l_partkey":
		return domain{0, serveLines / 30}
	case "p_attr1", "p_attr2":
		return domain{0, 1000}
	case "p_size", "l_quantity":
		return domain{1, 50}
	case "o_orderkey", "l_orderkey":
		return domain{0, serveLines / 4}
	case "o_orderdate", "l_shipdate":
		return domain{float64(dateLo), float64(dateSpan)}
	case "l_receiptdate":
		return domain{float64(dateLo), float64(dateSpan + 30)}
	case "o_totalprice":
		return domain{1000, 100000}
	case "l_id":
		return domain{0, serveLines}
	default: // l_extendedprice
		return domain{priceLo, priceSpan}
	}
}

func litAt(c int, d domain, frac float64) lit {
	v := d.lo + frac*d.span
	switch columns[c].kind {
	case 'f':
		return floatLit(math.Round(v*100) / 100)
	case 'd':
		return dateLit(int64(v))
	default:
		return intLit(int64(v))
	}
}

// wideCond draws a conjunct that keeps at least about half of the
// column's values, so a LIMIT pipeline over it ends after a few batches.
func wideCond(rng *rand.Rand, c int) cond {
	d := columnDomain(c)
	switch rng.Intn(5) {
	case 0:
		return cond{col: c, op: "<", lo: litAt(c, d, 0.55+0.4*rng.Float64())}
	case 1:
		return cond{col: c, op: "<=", lo: litAt(c, d, 0.55+0.4*rng.Float64())}
	case 2:
		return cond{col: c, op: ">", lo: litAt(c, d, 0.45*rng.Float64())}
	case 3:
		return cond{col: c, op: ">=", lo: litAt(c, d, 0.45*rng.Float64())}
	default:
		lo := 0.3 * rng.Float64()
		return cond{col: c, op: "between", lo: litAt(c, d, lo), hi: litAt(c, d, lo+0.6+0.1*rng.Float64())}
	}
}

func columnsOf(tables []string) []int {
	var out []int
	for ci, c := range columns {
		for _, t := range tables {
			if c.table == t {
				out = append(out, ci)
			}
		}
	}
	return out
}

// genAdhoc builds the serve.adhoc list: statements nobody asked before,
// each short to execute, so that parsing, normalizing, estimating and
// enumerating make up most of a request. Three kinds are mixed:
//
//   - 10% LIMIT-k pipelines over wide predicates on one table, which stop
//     after the first batch, at any of the four thresholds;
//   - 5% aggregates over lineitem (and orders) joined to the few part
//     rows a selective predicate picks, which plan as semijoin or index
//     nested-loop lookups, at threshold 0.05;
//   - 85% aggregates over one to three tables where lineitem is cut to a
//     one ship or receipt date, or to one part key within a few months
//     of ship dates, which plan as an index range scan or an index
//     intersection feeding primary-key lookups, at threshold 0.05.
//
// The selective kinds stay off the higher thresholds because there the
// robust estimator, seeing no sample row match, prices in the chance of
// many matches and scans the table instead: the behaviour the paper
// argues for, but a scan per request would make this the execution-bound
// workload a second time. A LIMIT over a join is left out for the same
// reason (the hash build runs to completion before the first row), and
// the shares are set by what the engine can answer quickly: even one
// batch of a scan costs more than planning a single-table statement.
func genAdhoc(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var reqs []request
	for len(reqs) < adhocRequests {
		q := querySpec{orderBy: -1}
		var threshold float64
		slice := ""
		switch k := rng.Intn(20); {
		case k < 2:
			slice = "limit"
			threshold = adhocThresholds[rng.Intn(4)]
			q.tables = []string{[]string{"lineitem", "orders", "part"}[rng.Intn(3)]}
			cols := columnsOf(q.tables)
			rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
			for _, c := range cols[:1+rng.Intn(3)] {
				q.conds = append(q.conds, wideCond(rng, c))
			}
			q.project = []int{cols[rng.Intn(len(cols))]}
			q.limit = 1 + rng.Intn(40)
		case k < 3:
			slice = "part"
			threshold = adhocThresholds[0]
			q.tables = [][]string{{"lineitem", "part"}, {"lineitem", "orders", "part"}}[rng.Intn(2)]
			attr := []string{"p_attr1", "p_attr2"}[rng.Intn(2)]
			v := int64(rng.Intn(1000))
			if rng.Intn(2) == 0 {
				q.conds = append(q.conds, cmp(attr, "=", intLit(v)))
			} else {
				q.conds = append(q.conds, between(attr, intLit(v), intLit(v+int64(rng.Intn(2)))))
			}
			if rng.Intn(2) == 0 {
				q.conds = append(q.conds, wideCond(rng, col([]string{"p_size", "l_quantity", "l_extendedprice"}[rng.Intn(3)])))
			}
			q.aggs = adhocAggs(rng)
		default:
			slice = "range"
			threshold = adhocThresholds[0]
			q.tables = [][]string{{"lineitem"}, {"lineitem", "orders"}, {"lineitem", "orders", "part"}}[rng.Intn(3)]
			if rng.Intn(3) == 0 {
				v := int64(rng.Intn(serveLines / 30))
				d := dateLo + int64(rng.Intn(int(dateSpan)-120))
				q.conds = append(q.conds, cmp("l_partkey", "=", intLit(v)), between("l_shipdate", dateLit(d), dateLit(d+30+int64(rng.Intn(90)))))
			} else {
				c := []string{"l_shipdate", "l_receiptdate"}[rng.Intn(2)]
				d := dateLo + int64(rng.Intn(int(dateSpan)-2))
				if rng.Intn(2) == 0 {
					q.conds = append(q.conds, cmp(c, "=", dateLit(d)))
				} else {
					q.conds = append(q.conds, between(c, dateLit(d), dateLit(d)))
				}
			}
			if rng.Intn(2) == 0 {
				q.conds = append(q.conds, wideCond(rng, col([]string{"l_quantity", "l_extendedprice", "l_id"}[rng.Intn(3)])))
			}
			q.aggs = adhocAggs(rng)
		}
		if shape := q.shape(); !seen[shape] {
			seen[shape] = true
			reqs = append(reqs, request{spec: q, tpl: len(reqs), threshold: threshold, slice: slice})
		}
	}
	return finish(rng, reqs)
}

// adhocAggs draws one to three aggregates with aliases that vary, which
// makes otherwise equal statements distinct templates.
func adhocAggs(rng *rand.Rand) []aggSpec {
	pool := []aggSpec{
		{fn: "COUNT", col: -1}, {fn: "SUM", col: col("l_extendedprice")}, {fn: "SUM", col: col("l_quantity")},
		{fn: "MIN", col: col("l_shipdate")}, {fn: "MAX", col: col("l_extendedprice")}, {fn: "MAX", col: col("l_quantity")},
		{fn: "MIN", col: col("l_id")}, {fn: "MAX", col: col("l_receiptdate")},
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	aggs := pool[:1+rng.Intn(3)]
	for i := range aggs {
		aggs[i].as = "v" + string(rune('a'+rng.Intn(26))) + string(rune('a'+i))
	}
	return aggs
}

const columnarRequests = 400

// genColumnar builds the scan.columnar list over lineitem laid out in
// ship-date order: 60% selective ship-date ranges (partition pruning,
// zone-map skipping, late materialization), 25% l_quantity ranges with
// selectivity on both sides of the eager/late boundary (encoded probes,
// nothing to skip), 15% residuals the encoded path cannot push down
// (<> and a float literal), which decode first and filter after.
func genColumnar(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	var reqs []request
	for i := 0; i < columnarRequests; i++ {
		q := querySpec{tables: []string{"lineitem"}, orderBy: -1}
		slice := ""
		switch {
		case i%20 < 12:
			slice = "date"
			d := dateLo + int64(rng.Intn(int(dateSpan)-30))
			q.conds = []cond{between("l_shipdate", dateLit(d), dateLit(d+29))}
			q.aggs = []aggSpec{countStar, sumPrice}
		case i%20 < 17:
			slice = "quantity"
			// Eight of the fifty values (16%) or twenty (40%), in turn.
			lo, width := int64(1+rng.Intn(30)), int64(7+12*(i%2))
			q.conds = []cond{between("l_quantity", intLit(lo), intLit(lo+width))}
			q.aggs = []aggSpec{sumPrice}
		default:
			slice = "residual"
			if i%40 < 20 {
				q.conds = []cond{cmp("l_quantity", "<>", intLit(int64(1+rng.Intn(50))))}
			} else {
				q.conds = []cond{cmp("l_extendedprice", "<", floatLit(priceLo+math.Round((0.45+0.1*rng.Float64())*priceSpan*100)/100+0.005))}
			}
			q.aggs = []aggSpec{countStar}
		}
		reqs = append(reqs, request{spec: q, slice: slice})
	}
	return finish(rng, reqs)
}

// crossoverThresholds are the confidence thresholds of paper.crossover.
var crossoverThresholds = []float64{0.05, 0.5, 0.8, 0.95}

// genCrossover builds the paper.crossover list: the Experiment-1 query at
// shifts 0 to 119 days and the Experiment-2 query at window positions 0
// to 39, each at four thresholds. The seed leaves out one point of every
// eight and orders the list, so every seed sweeps the same ground and
// the simulated cost moves little from seed to seed.
func genCrossover(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	lo, hi := days(1997, time.July, 1), days(1997, time.September, 30)
	var reqs []request
	var omit int64
	for shift := int64(0); shift < 120; shift++ {
		if shift%8 == 0 {
			omit = shift + int64(rng.Intn(8))
		}
		if shift == omit {
			continue
		}
		spec := querySpec{tables: []string{"lineitem"}, aggs: []aggSpec{sumPrice}, orderBy: -1,
			conds: []cond{
				between("l_shipdate", dateLit(lo), dateLit(hi)),
				between("l_receiptdate", dateLit(lo+shift), dateLit(hi+shift)),
			}}
		for _, t := range crossoverThresholds {
			reqs = append(reqs, request{spec: spec, query: tpch.Experiment1Query(shift), threshold: t, slice: "exp1"})
		}
	}
	for x := int64(0); x < 40; x++ {
		if x%8 == 0 {
			omit = x + int64(rng.Intn(8))
		}
		if x == omit {
			continue
		}
		spec := querySpec{tables: []string{"lineitem", "orders", "part"}, aggs: []aggSpec{sumPrice, countStar}, orderBy: -1,
			conds: []cond{
				cmp("p_attr1", "<", intLit(tpch.PartWindow)),
				between("p_attr2", intLit(x), intLit(x+tpch.PartWindow-1)),
			}}
		for _, t := range crossoverThresholds {
			reqs = append(reqs, request{spec: spec, query: tpch.Experiment2Query(x), threshold: t, slice: "exp2"})
		}
	}
	return finish(rng, reqs)
}
