package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"robustqo/internal/core"
	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
)

// Plan is the optimizer's output: an executable physical plan with the
// cost and cardinality the optimizer believed at planning time.
type Plan struct {
	Root      engine.Node
	EstCost   float64 // estimated execution seconds under the cost model
	EstRows   float64 // estimated final result cardinality
	Estimator string  // name of the cardinality estimator used

	// estimates holds the per-node cardinality snapshots captured while
	// the plan was built; EstimateOf serves EXPLAIN ANALYZE lookups.
	estimates  map[engine.Node]obs.EstimateSnapshot
	confidence float64
}

// Explain renders the chosen plan tree.
func (p *Plan) Explain() string { return engine.Explain(p.Root) }

// EstimateOf returns the optimizer's planning-time cardinality snapshot
// for a node of the plan tree. It is the EstimateOf callback
// engine.ExplainAnalyze expects.
func (p *Plan) EstimateOf(n engine.Node) (obs.EstimateSnapshot, bool) {
	s, ok := p.estimates[n]
	return s, ok
}

// Confidence returns the posterior percentile T the plan's estimates
// were taken at, or zero when the estimator uses point estimates.
func (p *Plan) Confidence() float64 { return p.confidence }

// Optimizer searches the plan space of a query using the engine's cost
// model and a pluggable cardinality estimator.
type Optimizer struct {
	Ctx *engine.Context
	Est core.Estimator
	// Trace, when non-nil, receives spans for the optimizer's phases
	// (analyze, access-path seeding, join enumeration, finalization)
	// and each uncached estimator call.
	Trace *obs.Trace
	// MaxDOP caps the degree of parallelism the optimizer may assign to
	// a plan's scans via Exchange operators; 0 or 1 keeps plans serial.
	MaxDOP int
	// Metrics, when non-nil, receives the optimizer's cache counters:
	// selectivity-cache hits/misses (cache hits are recorded here
	// span-free, so enumeration-heavy queries don't balloon traces) and
	// the estimator's posterior-quantile cache totals.
	Metrics *obs.Registry
}

// New returns an optimizer over the execution context using the given
// cardinality estimation module.
func New(ctx *engine.Context, est core.Estimator) (*Optimizer, error) {
	if ctx == nil || est == nil {
		return nil, fmt.Errorf("optimizer: need an execution context and an estimator")
	}
	return &Optimizer{Ctx: ctx, Est: est}, nil
}

// candidate is one physical alternative for a table subset.
type candidate struct {
	node    engine.Node
	cost    float64
	rows    float64
	ordered []ordering // columns the output is known to be ordered by
}

// ordering is one column a candidate's rows come out ordered by: one the
// catalog declares for a base table, or, when sorted, one a MergeJoin
// sorted its inputs on, so the order holds whatever the catalog says.
type ordering struct {
	col    expr.ColumnRef
	sorted bool
}

func (c candidate) orderedBy(ref expr.ColumnRef) bool {
	return slices.ContainsFunc(c.ordered, func(o ordering) bool { return o.col == ref })
}

// estKey names one estimator question: the FK join of a table mask under
// a conjunct mask.
type estKey struct {
	tables uint32
	conjs  uint64
}

// selEntry memoizes one estimator answer: the clamped selectivity and
// the row figure. The row figure is the estimator's own when it reported
// one, which matters under partition pruning: the estimator knows which
// population its selectivity is a fraction of (the surviving shards'),
// so rowsOf must not re-scale the selectivity by a population of its
// own choosing.
type selEntry struct {
	sel  float64
	rows float64
}

// belief is what the optimizer believed of a plan node when it built it:
// its output rows and, for a node whose rows are a prediction about a
// table subset under its conjuncts (a scan or a join), those tables.
type belief struct {
	rows   float64
	tables uint32
}

// planner carries per-query optimization state.
type planner struct {
	opt *Optimizer
	a   *analysis
	// memo holds the query's estimator answers by question.
	memo map[estKey]selEntry
	// beliefs holds every constructed plan node's belief, losing
	// candidates' too; treeEstimates turns the chosen tree's into
	// estimates, starting each from snap (estimator name, confidence
	// percentile).
	beliefs   map[engine.Node]belief
	estimates map[engine.Node]obs.EstimateSnapshot
	snap      obs.EstimateSnapshot
	// parts is the partition-pruning verdict per query table index,
	// filled by computePruning before access-path seeding; nil for an
	// unpartitioned table.
	parts []*tableParts
	// scanLive holds, per sequential scan of the chosen tree, the rows of
	// the tiles no pushed bound excludes in its surviving shards: the
	// rows it reads (treeEstimates).
	scanLive map[*engine.SeqScan]int
}

// record captures the optimizer's belief about a plan node: its rows
// and, for a scan or join, the tables they are a prediction about.
// Post-join shaping operators (aggregate, sort, limit, project) pass no
// tables, so the ledger only accumulates predicate feedback.
func (p *planner) record(n engine.Node, rows float64, tables uint32) {
	p.beliefs[n] = belief{rows: rows, tables: tables}
}

// Optimize selects the cheapest plan for the query under the estimator.
func (o *Optimizer) Optimize(q *Query) (*Plan, error) {
	sp := o.Trace.StartSpan("optimize")
	defer sp.End()
	p, err := o.newPlanner(q)
	if err != nil {
		return nil, err
	}
	best := make(map[uint32][]candidate)
	if err := p.seedAccessPaths(best); err != nil {
		return nil, err
	}
	full, err := p.enumerateJoins(best)
	if err != nil {
		return nil, err
	}
	root, finalCost, finalRows, err := p.finish(full)
	if err != nil {
		return nil, err
	}
	// Every leaf emits only what its ancestors read. Counters are per page,
	// row and probe, never per column, so the cost just computed stands.
	engine.PruneColumns(o.Ctx, root)
	p.estimates = p.treeEstimates(root)
	if o.MaxDOP >= 2 {
		root = p.parallelize(root)
	}
	exportQuantileCache(o.Metrics, quantileCacheOf(o.Est))
	return &Plan{
		Root: root, EstCost: finalCost, EstRows: finalRows, Estimator: o.Est.Name(),
		estimates: p.estimates, confidence: p.snap.Percentile,
	}, nil
}

// newPlanner analyzes q and sets up its search state, partition pruning
// included.
func (o *Optimizer) newPlanner(q *Query) (*planner, error) {
	a, err := o.analyzeQuery(q)
	if err != nil {
		return nil, err
	}
	p := &planner{
		opt: o, a: a,
		memo:     make(map[estKey]selEntry),
		beliefs:  make(map[engine.Node]belief),
		snap:     obs.EstimateSnapshot{Estimator: o.Est.Name()},
		scanLive: make(map[*engine.SeqScan]int),
	}
	if cl, ok := o.Est.(core.ConfidenceReporter); ok {
		if t, ok := cl.ConfidenceLevel(); ok {
			p.snap.Percentile = t
		}
	}
	p.computePruning()
	return p, nil
}

// treeEstimates returns the estimates of the nodes of the tree at root:
// the belief recorded for each, the ledger fingerprint of the tables a
// scan or join predicts, and a scan's partition arithmetic ("partitions:
// k/n" in EXPLAIN ANALYZE) and, for a sequential scan, its zone-map
// arithmetic ("segments: k/n skipped"), whose live rows it keeps in
// scanLive for parallelize. Only the chosen tree pays for them.
func (p *planner) treeEstimates(root engine.Node) map[engine.Node]obs.EstimateSnapshot {
	out := make(map[engine.Node]obs.EstimateSnapshot)
	var walk func(n engine.Node)
	walk = func(n engine.Node) {
		if b, ok := p.beliefs[n]; ok {
			s := p.snap
			s.Rows = b.rows
			if b.tables != 0 {
				s.Fingerprint = p.a.fingerprint(b.tables)
			}
			switch n.(type) {
			case *engine.SeqScan, *engine.IndexRangeScan, *engine.IndexIntersect:
				i := bits.TrailingZeros32(b.tables)
				if tp := p.parts[i]; tp != nil {
					s.PartsScanned, s.PartsTotal = len(tp.parts), tp.total
				}
				if scan, ok := n.(*engine.SeqScan); ok {
					zc, pushed := p.scanZones(i)
					if pushed {
						s.SegsSkipped, s.SegsTotal = zc.Skipped, zc.Tiles
					}
					p.scanLive[scan] = zc.Live
				}
			}
			out[n] = s
		}
		for _, c := range engine.Children(n) {
			walk(c)
		}
	}
	walk(root)
	return out
}

// analyzeQuery is the semantic-analysis phase under its trace span.
func (o *Optimizer) analyzeQuery(q *Query) (*analysis, error) {
	sp := o.Trace.StartSpan("optimize/analyze")
	defer sp.End()
	return analyze(o.Ctx.DB.Catalog, q)
}

// seedAccessPaths fills best with the pruned single-table access paths.
func (p *planner) seedAccessPaths(best map[uint32][]candidate) error {
	sp := p.opt.Trace.StartSpan("optimize/access-paths")
	defer sp.End()
	for i := range p.a.tables {
		cands, err := p.accessPaths(i)
		if err != nil {
			return err
		}
		best[1<<uint(i)] = prune(cands)
	}
	return nil
}

// enumerateJoins runs the dynamic program over connected table subsets
// and returns the candidates covering every table, one per ordering.
func (p *planner) enumerateJoins(best map[uint32][]candidate) ([]candidate, error) {
	sp := p.opt.Trace.StartSpan("optimize/join-enumeration")
	defer sp.End()
	a := p.a
	full := uint32(1<<len(a.tables)) - 1
	// Grow subsets by size.
	for size := 2; size <= len(a.tables); size++ {
		for mask := uint32(1); mask <= full; mask++ {
			if bits.OnesCount32(mask) != size || !a.connected(mask) {
				continue
			}
			var cands []candidate
			// Left-deep extensions: mask = rest ∪ {t}.
			for i := range a.tables {
				bit := uint32(1) << uint(i)
				if mask&bit == 0 {
					continue
				}
				rest := mask &^ bit
				if rest == 0 || !a.connected(rest) {
					continue
				}
				joins, err := p.joinCandidates(rest, i, best)
				if err != nil {
					return nil, err
				}
				cands = append(cands, joins...)
			}
			// Star strategies for this subset, when applicable.
			stars, err := p.starCandidates(mask, best)
			if err != nil {
				return nil, err
			}
			cands = append(cands, stars...)
			if len(cands) == 0 {
				return nil, fmt.Errorf("optimizer: no plan for table subset %v", a.tablesOf(mask))
			}
			best[mask] = prune(cands)
		}
	}
	sp.SetAttr("subsets", fmt.Sprint(len(best)))
	return best[full], nil
}

// finish picks the cheapest of the candidates covering every table once
// its ORDER BY sort is charged, and layers aggregation, ordering,
// limiting, and projection on top of it, following SQL evaluation order.
// It returns the plan root, its estimated total cost, and the estimated
// final row count.
func (p *planner) finish(cands []candidate) (engine.Node, float64, float64, error) {
	sp := p.opt.Trace.StartSpan("optimize/finalize")
	defer sp.End()
	q := p.a.q
	m := p.opt.Ctx.Model
	// A single ascending ORDER BY key over unaggregated rows needs no
	// sort for a candidate whose rows come out ordered by it: a MergeJoin
	// on the key sorted them, or the catalog declares the order and the
	// key's table rows confirm it. Candidates cover the same rows, so the
	// sort one may spare is the only finishing charge that ranks them.
	sorted := func(candidate) bool { return false }
	charged := false // whether ranking charges the sort
	if ob := q.OrderBy; len(ob) == 1 && !ob[0].Desc && len(q.Aggs) == 0 && len(q.GroupBy) == 0 {
		key := ob[0].Col
		t, ok := p.opt.Ctx.DB.Table(key.Table)
		declared := ok && t.NonDecreasing(key.Column)
		sorted = func(c candidate) bool {
			return slices.ContainsFunc(c.ordered, func(o ordering) bool { return o.col == key && (o.sorted || declared) })
		}
		charged = declared || slices.ContainsFunc(cands, sorted)
	}
	ranked := func(c candidate) float64 {
		if charged && !sorted(c) {
			return c.cost + c.rows*m.SortTuple
		}
		return c.cost
	}
	c := cands[0]
	for _, d := range cands[1:] {
		if cost.Less(ranked(d), ranked(c)) {
			c = d
		}
	}
	node := c.node
	total := c.cost
	rows := c.rows
	if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
		node = &engine.Aggregate{Input: node, GroupBy: q.GroupBy, Aggs: q.Aggs}
		total += rows * (m.HashBuild + m.Tuple)
		rows = p.estimateGroups(rows)
		p.record(node, rows, 0)
	}
	if len(q.OrderBy) > 0 && !sorted(c) {
		// Under a LIMIT the sort only needs the first q.Limit rows, so
		// the engine can keep a bounded top-K heap instead of
		// materializing the full sorted input.
		node = &engine.Sort{Input: node, By: q.OrderBy, TopK: q.Limit}
		total += rows * m.SortTuple
		p.record(node, rows, 0)
	}
	if q.Limited() {
		node = &engine.Limit{Input: node, N: q.Limit}
		if float64(q.Limit) < rows {
			rows = float64(q.Limit)
		}
		p.record(node, rows, 0)
	}
	if len(q.Project) > 0 && len(q.Aggs) == 0 && len(q.GroupBy) == 0 {
		node = &engine.Project{Input: node, Cols: q.Project}
		total += rows * m.Tuple
		p.record(node, rows, 0)
	}
	total += rows * m.Output
	return node, total, rows, nil
}

// estimateGroups predicts the aggregate output cardinality: one row for a
// grand total, otherwise the estimator's distinct-combination prediction
// when it offers one (Section 3.5), capped by the input rows.
func (p *planner) estimateGroups(inRows float64) float64 {
	q := p.a.q
	if len(q.GroupBy) == 0 {
		return 1
	}
	if ge, ok := p.opt.Est.(core.GroupsEstimator); ok {
		if groups, err := ge.EstimateGroups(p.a.tables, q.GroupBy); err == nil {
			return min(max(groups, 1), inRows)
		}
	}
	// No estimator support: the traditional guess of a tenth of the rows.
	return max(inRows/10, 1)
}

// prune keeps the cheapest candidate of each distinct output ordering,
// the first of equals, in place and in the order the survivors were
// generated, so ties up the tree also go to the plan generated first.
// That loses no plan: the candidates of a table subset all have the same
// rows, and a parent or finish reads nothing else of one but its
// ordering and a cost it only adds to.
func prune(cands []candidate) []candidate {
	kept := cands[:0]
	for _, c := range cands {
		switch i := slices.IndexFunc(kept, func(k candidate) bool { return slices.Equal(k.ordered, c.ordered) }); {
		case i < 0:
			kept = append(kept, c)
		case cost.Less(c.cost, kept[i].cost):
			kept = append(slices.Delete(kept, i, i+1), c)
		}
	}
	return kept
}

// selOf estimates the selectivity of the conjuncts cm over the FK join
// of the masked tables, memoized.
func (p *planner) selOf(tables uint32, cm uint64) (float64, error) {
	e, err := p.estOf(tables, cm)
	return e.sel, err
}

// rowsOf estimates the result cardinality of the masked subexpression
// under every conjunct over its tables, memoized. For FK joins this is
// root rows times joint selectivity. A repeat is no cache hit: every
// extension of a subset asks for its rows, and the hit counter measures
// repeated estimator questions, not enumeration steps.
func (p *planner) rowsOf(tables uint32) (float64, error) {
	cm := p.a.within(tables)
	if e, ok := p.memo[estKey{tables, cm}]; ok {
		return e.rows, nil
	}
	e, err := p.estOf(tables, cm)
	return e.rows, err
}

// estOf is the memoized estimator call behind selOf and rowsOf.
func (p *planner) estOf(tables uint32, cm uint64) (selEntry, error) {
	key := estKey{tables, cm}
	if e, ok := p.memo[key]; ok {
		// Hits are metric increments only — no span — so traces stay
		// proportional to distinct estimates, not enumeration steps.
		// Names stay literal at the call site so qolint's metricname
		// analyzer can check the registry namespace; a nil registry
		// costs one branch.
		if p.opt.Metrics != nil {
			p.opt.Metrics.Counter("robustqo_estimate_cache_hits_total").Inc()
		}
		return e, nil
	}
	if p.opt.Metrics != nil {
		p.opt.Metrics.Counter("robustqo_estimate_cache_misses_total").Inc()
	}
	root, err := p.a.rootOf(tables)
	if err != nil {
		return selEntry{}, err
	}
	names, pred := p.a.tablesOf(tables), p.a.pred(cm)
	sp := p.opt.Trace.StartSpan("estimate")
	defer sp.End()
	if sp != nil {
		sp.SetAttr("tables", strings.Join(names, ","))
		if pred != nil {
			sp.SetAttr("pred", fmt.Sprint(pred))
		}
	}
	// Pruning tightens the observation before the quantile is taken: the
	// estimator counts only the root's surviving shards' strata, and
	// zone-map evidence conditions the posterior on an exact selectivity
	// ceiling. Both are fixed per question.
	var parts []int
	if tp := p.parts[root]; tp != nil {
		parts = tp.parts
	}
	est, err := p.opt.Est.Estimate(core.Request{
		Tables:         names,
		Pred:           pred,
		Partitions:     parts,
		MaxSelectivity: p.zoneCeiling(root, cm),
	})
	if err != nil {
		return selEntry{}, err
	}
	s := est.Selectivity
	if math.IsNaN(s) || s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	e := selEntry{sel: s, rows: est.Rows}
	if math.IsNaN(e.rows) || e.rows < 0 {
		e.rows = 0
	}
	// Rows == 0 with a positive selectivity means the estimator left the
	// scaling to the caller (the Independent baseline without RowsFor).
	if e.rows == 0 && e.sel != 0 {
		rootRows, _, err := p.tableRowsPages(root)
		if err != nil {
			return selEntry{}, err
		}
		e.rows = e.sel * rootRows
	}
	p.memo[key] = e
	return e, nil
}

// tableRowsPages returns physical statistics of a base table.
func (p *planner) tableRowsPages(i int) (rows, pages float64, err error) {
	t, ok := p.opt.Ctx.DB.Table(p.a.tables[i])
	if !ok {
		return 0, 0, fmt.Errorf("optimizer: unknown table %q", p.a.tables[i])
	}
	return float64(t.NumRows()), float64(t.NumPages()), nil
}
