package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"robustqo/internal/colstore"
	"robustqo/internal/core"
	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/obs"
	"robustqo/internal/obs/ledger"
	"robustqo/internal/optimizer"
	"robustqo/internal/plancache"
	"robustqo/internal/sample"
	"robustqo/internal/sqlparse"
	"robustqo/internal/stats"
	"robustqo/internal/tpch"
)

// dataSeed is the seed the CLI and the server generate their data and
// synopses with. The benchmark's --seed shapes the requests; the data is
// the same fixture on every run, as it is for a user of `robustqo serve`.
const dataSeed = 2005

// system is the engine hosted inside the benchmark process, built by the
// same calls `robustqo sql` and `robustqo serve` make at start-up.
type system struct {
	ctx   *engine.Context
	est   *core.BayesEstimator
	reg   *obs.Registry
	encs  *colstore.Set
	cache *plancache.Cache
	dop   int

	// stage holds the seconds each set-up stage took.
	stage map[string]float64
}

type systemConfig struct {
	data      tpch.Config
	columnar  bool
	dop       int
	planCache bool
}

func buildSystem(cfg systemConfig) (*system, error) {
	s := &system{reg: obs.NewRegistry(), dop: cfg.dop, stage: map[string]float64{}}
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		s.stage[name] = time.Since(t0).Seconds()
		return err
	}
	cfg.data.Seed = dataSeed
	var syn *sample.Set
	err := timed("tpch.generate_s", func() error {
		db, err := tpch.Generate(cfg.data)
		if err != nil {
			return err
		}
		s.ctx = &engine.Context{DB: db}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = timed("engine.index_build_s", func() error {
		ctx, err := engine.NewContext(s.ctx.DB)
		s.ctx = ctx
		return err
	})
	if err != nil {
		return nil, err
	}
	s.ctx.Metrics = s.reg
	if cfg.columnar {
		err = timed("colstore.encode_s", func() error {
			s.encs, err = colstore.BuildAll(s.ctx.DB)
			s.ctx.Encodings = s.encs
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	err = timed("sample.build_s", func() error {
		syn, err = sample.BuildAll(s.ctx.DB, sample.DefaultSize, stats.NewRNG(dataSeed^0xbeef))
		return err
	})
	if err != nil {
		return nil, err
	}
	if s.est, err = core.NewBayesEstimator(syn, core.Moderate); err != nil {
		return nil, err
	}
	if cfg.planCache {
		s.cache = plancache.New(1024, s.reg)
	}
	return s, nil
}

// outcome is what one in-process request produced.
type outcome struct {
	res      *engine.Result
	counters cost.Counters
	sim      float64
	plan     *optimizer.Plan
	inst     *engine.Instrumented // nil when the plan ran bare
	cached   bool
}

// pipeline runs requests through a system the way one of the three
// in-process callers does. The tracer may be nil.
type pipeline struct {
	sys *system
	tr  *tracer
	// serve replays what the server's execute does around the engine:
	// admission, an instrumented and guarded plan, the rendered reply.
	serve  bool
	adm    *plancache.Admission
	led    *ledger.Ledger
	active *obs.ActiveQueries
	stmts  map[int]*plancache.Template
}

func newPipeline(sys *system, tr *tracer, serve bool) *pipeline {
	p := &pipeline{sys: sys, tr: tr, serve: serve}
	if serve {
		p.adm = plancache.NewAdmission(plancache.AdmissionConfig{}, 4, sys.reg)
		p.led = ledger.New(0)
		p.led.Metrics = sys.reg
		p.active = obs.NewActiveQueries()
		p.stmts = map[int]*plancache.Template{}
	}
	return p
}

// exec runs one request and returns its answer with the work it cost.
func (p *pipeline) exec(ctx context.Context, r *request) (outcome, error) {
	var out outcome
	p.tr.nextQuery()
	top := p.tr.begin("request")
	defer p.tr.end(top)

	if p.serve {
		release, err := p.adm.Admit(ctx)
		if err != nil {
			return out, err
		}
		defer release()
	}

	threshold := r.threshold
	if threshold == 0 {
		threshold = float64(core.Moderate)
	}
	est, err := withThreshold(p.sys.est, threshold, p.tr)
	if err != nil {
		return out, err
	}

	q := r.query
	switch {
	case q != nil:
	case p.serve && r.prepared && p.stmts[r.tpl] != nil:
		// /exec: bind the prepared template instead of parsing.
		id := p.tr.begin("plancache.bind")
		tpl := p.stmts[r.tpl]
		q, err = tpl.Bind(r.spec.params())
		p.tr.end(id)
	default:
		id := p.tr.begin("sqlparse.parse")
		q, err = sqlparse.Parse(r.sql)
		p.tr.end(id)
		if err == nil && p.serve && r.prepared {
			p.stmts[r.tpl] = plancache.Normalize(q) // /prepare
		}
	}
	if err != nil {
		return out, err
	}
	if p.tr != nil && p.sys.cache != nil {
		// Cache.Plan normalizes inside; this second call only times it.
		id := p.tr.begin("plancache.normalize_probe")
		plancache.Normalize(q)
		p.tr.end(id)
	}

	optimize := func(q *optimizer.Query) (*optimizer.Plan, error) {
		id := p.tr.begin("optimizer.optimize")
		defer p.tr.end(id)
		opt, err := optimizer.New(p.sys.ctx, est)
		if err != nil {
			return nil, err
		}
		opt.MaxDOP = p.sys.dop
		opt.Metrics = p.sys.reg
		return opt.Optimize(q)
	}
	if p.sys.cache != nil {
		id := p.tr.begin("plancache.plan")
		var oc plancache.Outcome
		out.plan, oc, err = p.sys.cache.Plan(plancache.Env{Ctx: p.sys.ctx, Est: est, DOP: p.sys.dop, Optimize: optimize}, q)
		out.cached = oc.Cached()
		p.tr.end(id)
	} else {
		out.plan, err = optimize(q)
	}
	if err != nil {
		return out, err
	}

	root := out.plan.Root
	if p.serve {
		live := p.active.Begin(r.sql)
		defer p.active.Done(live)
		out.inst = engine.InstrumentOpts(root, engine.InstrumentOptions{
			EstimateOf: out.plan.EstimateOf, Ledger: p.led, QueryID: live.ID, Live: live,
		})
		rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		root = engine.Guard(rctx, out.inst)
	} else if p.tr != nil {
		// A traced run wants per-operator times; serve always instruments.
		out.inst = engine.Instrument(root)
		root = out.inst
	}
	id := p.tr.begin("engine.execute")
	out.res, out.counters, out.sim, err = engine.Run(p.sys.ctx, root)
	p.tr.end(id)
	if err != nil {
		return out, err
	}
	if p.serve {
		id := p.tr.begin("serve.render")
		fmt.Fprintf(io.Discard, "estimator: %s\nestimated cost: %.4f s, estimated rows: %.1f\nplan:\n%ssimulated execution: %.4f s\n(%d rows)\n",
			out.plan.Estimator, out.plan.EstCost, out.plan.EstRows, out.plan.Explain(), out.sim, len(out.res.Rows))
		p.tr.end(id)
	}
	return out, nil
}

// opNames are the operators whose self time the traced run reports.
var opNames = []string{"SeqScan", "IndexRangeScan", "IndexIntersect", "HashJoin", "MergeJoin", "INLJoin",
	"StarSemiJoin", "Exchange", "Aggregate", "Sort", "Limit", "Project", "Filter"}

// opSelfTimes adds each operator's self time (inclusive wall time minus
// its children's) to into, by operator name. Under an Exchange the
// children run on several workers at once, so their summed time can
// exceed the parent's wall time; self time is floored at zero.
func opSelfTimes(n *engine.Instrumented, into map[string]time.Duration) time.Duration {
	incl := n.Stats.OpenTime + n.Stats.NextTime + n.Stats.CloseTime
	self := incl
	for _, k := range n.Kids {
		self -= opSelfTimes(k, into)
	}
	if self < 0 {
		self = 0
	}
	into[engine.OpName(n)] += self
	return incl
}

// planShape renders a plan as its operator tree without literals, so
// that two bindings of one physical plan compare equal.
func planShape(root engine.Node) string {
	var b strings.Builder
	for _, line := range strings.Split(engine.Explain(root), "\n") {
		if i := strings.IndexByte(line, '('); i >= 0 {
			line = line[:i]
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}
