package main

// The query lifecycle. serve's /query and /exec, `ledger run`, `sql` and
// `query` all build a server — the generated database, its estimator,
// the plan cache, the admission gate, the feedback ledger and the logs —
// and send every parsed statement through server.execute. They differ
// only in how they build the statement and how they print the outcome,
// so every front end records the same feedback the same way.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"robustqo/internal/core"
	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/histogram"
	"robustqo/internal/obs"
	"robustqo/internal/obs/ledger"
	"robustqo/internal/optimizer"
	"robustqo/internal/plancache"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/tpch"
)

// dbFlags are the flags of every subcommand that runs queries: the
// generated database, the estimator over it, and the parallelism budget.
type dbFlags struct {
	lines       int
	threshold   float64
	estimator   string
	sampleSize  int
	seed        uint64
	parallelism int
	partitions  int  // serve has no -partitions: it generates unpartitioned data
	cluster     bool // -cluster, sql only
}

func (f *dbFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&f.lines, "lines", 60000, "lineitem rows to generate")
	fs.Float64Var(&f.threshold, "threshold", 0.8, "confidence threshold in (0,1)")
	fs.StringVar(&f.estimator, "estimator", "robust", "cardinality estimator: robust or histogram")
	fs.IntVar(&f.sampleSize, "samplesize", sample.DefaultSize, "synopsis tuples")
	fs.Uint64Var(&f.seed, "seed", 2005, "random seed")
	fs.IntVar(&f.parallelism, "parallelism", 1, "max degree of parallelism for eligible scans (1 = serial)")
}

func (f *dbFlags) registerPartitions(fs *flag.FlagSet) {
	fs.IntVar(&f.partitions, "partitions", 1,
		"range-partition lineitem on l_shipdate into this many shards (1 = unpartitioned)")
}

// logFlags are the lifecycle-log flags serve and `ledger run` share.
type logFlags struct {
	slowMS  int
	slowLog string
	events  string
}

func (f *logFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&f.slowMS, "slow-query-ms", 100, "slow-query latency threshold in milliseconds")
	fs.StringVar(&f.slowLog, "slow-log", "", "write slow-query captures as JSON lines to this file")
	fs.StringVar(&f.events, "events", "", "write query-lifecycle events as JSON lines to this file")
}

// server holds the state every query runs against. The database,
// indexes, and estimator are immutable after startup; the registry,
// ledger, live registry, plan cache, admission gate, and logs are
// internally synchronized — so handlers need no lock.
type server struct {
	ctx   *engine.Context
	est   core.Estimator
	bayes *core.BayesEstimator // non-nil when est is the robust estimator
	reg   *obs.Registry
	dop   int // max degree of parallelism for eligible scans

	cache *plancache.Cache
	adm   *plancache.Admission
	stmts *stmtRegistry

	// reqTimeout cancels in-flight execution via context; 0 disables.
	reqTimeout time.Duration
	maxBody    int64

	led      *ledger.Ledger
	active   *obs.ActiveQueries
	events   *obs.EventLog // nil unless -events names a file
	slow     *obs.SlowLog
	slowMS   int
	logFiles []io.Closer // the -events and -slow-log files
}

// newServer generates the database f describes and builds the state
// around it, reporting progress to out.
func newServer(f dbFlags, out io.Writer) (*server, error) {
	fmt.Fprintf(out, "generating TPC-H-like data (%d lineitem rows)...\n", f.lines)
	db, err := tpch.Generate(tpch.Config{Lines: f.lines, Partitions: f.partitions, Seed: f.seed, ClusterDates: f.cluster})
	if err != nil {
		return nil, err
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		return nil, err
	}
	est, err := buildEstimator(db, f.estimator, f.threshold, f.sampleSize, f.seed)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	s := &server{
		ctx: ctx, est: est, reg: reg, dop: f.parallelism,
		cache:   plancache.New(1024, reg),
		adm:     plancache.NewAdmission(plancache.AdmissionConfig{}, defaultAdmissionSlots(), reg),
		stmts:   newStmtRegistry(),
		maxBody: defaultMaxBody,
		led:     ledger.New(0),
		active:  obs.NewActiveQueries(),
		slow:    obs.NewSlowLog(0, nil),
		slowMS:  100,
	}
	// Engine-side metering (hash-join builds, zone verdicts and the
	// exchange utilization series) lands in the same registry /metrics
	// serves, as do the ledger's own counters.
	ctx.Metrics = s.reg
	s.led.Metrics = s.reg
	if b, ok := est.(*core.BayesEstimator); ok {
		s.bayes = b
	}
	return s, nil
}

// buildEstimator constructs the named cardinality estimator over the
// generated database.
func buildEstimator(db *storage.Database, name string, threshold float64, sampleSize int, seed uint64) (core.Estimator, error) {
	switch name {
	case "robust":
		syn, err := sample.BuildAll(db, sampleSize, stats.NewRNG(seed^0xbeef))
		if err != nil {
			return nil, err
		}
		return core.NewBayesEstimator(syn, core.ConfidenceThreshold(threshold))
	case "histogram":
		hists, err := histogram.BuildAll(db)
		if err != nil {
			return nil, err
		}
		return core.NewHistogramEstimator(hists, db.Catalog)
	default:
		return nil, fmt.Errorf("unknown estimator %q", name)
	}
}

// openLogs creates the files f names and points the event and slow-query
// logs at them. The caller owns the files through closeLogs, also when
// openLogs fails.
func (s *server) openLogs(f logFlags) error {
	s.slowMS = f.slowMS
	if f.slowLog != "" {
		fh, err := os.Create(f.slowLog)
		if err != nil {
			return err
		}
		s.logFiles = append(s.logFiles, fh)
		s.slow = obs.NewSlowLog(0, fh)
	}
	if f.events != "" {
		fh, err := os.Create(f.events)
		if err != nil {
			return err
		}
		s.logFiles = append(s.logFiles, fh)
		s.events = obs.NewEventLog(fh)
		s.events.Now = time.Now
	}
	return nil
}

// closeLogs closes the log files and returns the first error the logs
// met: a lost event or slow-query line, then a failed Close. A run whose
// logs are incomplete fails instead of reporting success.
func (s *server) closeLogs() error {
	err := s.events.Err()
	if err == nil {
		err = s.slow.Err()
	}
	for _, c := range s.logFiles {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	s.logFiles = nil
	return err
}

// saveLedger persists the feedback ledger to path.
func (s *server) saveLedger(path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("persist ledger: %w", err)
	}
	if err := s.led.Save(fh); err != nil {
		fh.Close()
		return fmt.Errorf("persist ledger: %w", err)
	}
	return fh.Close()
}

// request is one parsed statement on its way through execute.
type request struct {
	sql   string // the text events, live progress and the slow log show
	q     *optimizer.Query
	est   core.Estimator // nil selects the server's estimator
	trace *obs.Trace     // nil unless spans are exported
}

// outcome is what execute produced for one request.
type outcome struct {
	plan     *optimizer.Plan
	cache    plancache.Outcome
	inst     *engine.Instrumented
	res      *engine.Result
	counters cost.Counters
	sim      float64
}

// analyze renders the executed plan's timed EXPLAIN ANALYZE tree.
func (o *outcome) analyze() string {
	return engine.ExplainAnalyze(o.inst, engine.AnalyzeOptions{
		EstimateOf: o.plan.EstimateOf,
		Timings:    true,
		Totals:     &o.counters,
	})
}

// queryError is a failed request: the HTTP status, error code and
// Retry-After serve answers it with, and the cause.
type queryError struct {
	status     int
	code       string
	retryAfter time.Duration
	err        error
}

func (e *queryError) Error() string { return e.err.Error() }
func (e *queryError) Unwrap() error { return e.err }

// plan returns r's plan from the plan cache, optimizing it cold on a
// miss.
func (s *server) plan(r request, est core.Estimator, dop int) (*optimizer.Plan, plancache.Outcome, error) {
	return s.cache.Plan(plancache.Env{
		Ctx: s.ctx,
		Est: est,
		DOP: dop,
		Optimize: func(q *optimizer.Query) (*optimizer.Plan, error) {
			opt, err := optimizer.New(s.ctx, est)
			if err != nil {
				return nil, err
			}
			opt.MaxDOP = dop
			opt.Metrics = s.reg
			opt.Trace = r.trace
			return opt.Optimize(q)
		},
	}, r.q)
}

// execute runs one request through the whole lifecycle: admission → plan
// cache → instrumented, guarded execution → latency histogram, events,
// slow log and query metrics. Every error it returns is a *queryError.
func (s *server) execute(ctx context.Context, r request) (*outcome, error) {
	// Admission first: overload is decided before any per-query work.
	release, err := s.adm.Admit(ctx)
	if err != nil {
		switch {
		case errors.Is(err, plancache.ErrShed), errors.Is(err, plancache.ErrTimeout):
			return nil, &queryError{http.StatusTooManyRequests, "overloaded", s.adm.RetryAfter(), err}
		case errors.Is(err, plancache.ErrClosed):
			return nil, &queryError{http.StatusServiceUnavailable, "shutting_down", s.adm.RetryAfter(), err}
		default: // the caller went away while queued
			return nil, &queryError{http.StatusServiceUnavailable, "cancelled", 0, err}
		}
	}
	defer release()

	if s.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.reqTimeout)
		defer cancel()
	}
	est := r.est
	if est == nil {
		est = s.est
	}

	live := s.active.Begin(r.sql)
	defer s.active.Done(live)
	start := time.Now()
	s.events.Emit(obs.Event{QueryID: live.ID, Event: "received", SQL: r.sql})
	fail := func(status int, code string, err error) error {
		live.SetPhase(obs.PhaseFailed)
		s.events.Emit(obs.Event{QueryID: live.ID, Event: "failed", Detail: err.Error()})
		return &queryError{status: status, code: code, err: err}
	}

	live.SetPhase(obs.PhaseOptimize)
	out := &outcome{}
	out.plan, out.cache, err = s.plan(r, est, s.dop)
	if err != nil {
		return nil, fail(http.StatusBadRequest, "optimize_error", err)
	}
	if err := s.adm.CheckMemory(out.plan.EstRows); err != nil {
		return nil, fail(http.StatusTooManyRequests, "mem_budget", err)
	}
	out.inst = engine.InstrumentOpts(out.plan.Root, engine.InstrumentOptions{
		Trace:      r.trace,
		EstimateOf: out.plan.EstimateOf,
		Ledger:     s.led,
		QueryID:    live.ID,
		Live:       live,
	})
	live.T = out.plan.Confidence()
	live.DOP = s.dop
	live.EstRows = out.plan.EstRows
	live.PartsPruned, live.PartsTotal = planPruning(out.inst, out.plan.EstimateOf)
	s.events.Emit(obs.Event{QueryID: live.ID, Event: "optimized", T: live.T, DOP: s.dop,
		EstRows: out.plan.EstRows, PartsPruned: live.PartsPruned, PartsTotal: live.PartsTotal,
		ElapsedUS: time.Since(start).Microseconds()})
	live.SetPhase(obs.PhaseExecute)
	// The cancel guard sits outside the instrumented root: aborting
	// still closes the instrumented tree, which flushes ledger feedback
	// for the work that did complete.
	out.res, out.counters, out.sim, err = engine.Run(s.ctx, engine.Guard(ctx, out.inst))
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return nil, fail(http.StatusGatewayTimeout, "query_timeout", err)
		case errors.Is(err, context.Canceled):
			return nil, fail(http.StatusServiceUnavailable, "cancelled", err)
		default:
			return nil, fail(http.StatusInternalServerError, "execute_error", err)
		}
	}
	live.SetPhase(obs.PhaseDone)
	elapsed := time.Since(start)
	s.reg.Histogram("robustqo_query_latency_seconds", obs.LatencyBuckets).Observe(elapsed.Seconds())
	s.events.Emit(obs.Event{QueryID: live.ID, Event: "done",
		Rows: int64(len(out.res.Rows)), ElapsedUS: elapsed.Microseconds()})
	if elapsed >= time.Duration(s.slowMS)*time.Millisecond {
		s.slow.Record(obs.SlowQuery{
			QueryID: live.ID, SQL: r.sql, ElapsedUS: elapsed.Microseconds(), Analyze: out.analyze(),
		})
	}
	recordQueryMetrics(s.reg, out.plan, out.inst)
	return out, nil
}

// planPruning reports the widest pruned scan of the plan: the snapshot
// with the largest shard total. The instrumented tree doubles as the
// walkable plan shape — its Origin pointers key the estimate map.
func planPruning(root *engine.Instrumented, estOf func(engine.Node) (obs.EstimateSnapshot, bool)) (pruned, total int) {
	var walk func(n *engine.Instrumented)
	walk = func(n *engine.Instrumented) {
		if est, ok := estOf(n.Origin); ok && est.PartsTotal > total {
			pruned, total = est.PartsTotal-est.PartsScanned, est.PartsTotal
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(root)
	return pruned, total
}

// recordQueryMetrics feeds one executed query into the metrics
// registry: totals, the chosen join order keyed by the confidence
// threshold it was planned under, and the per-operator-type Q-error
// distribution (plan-vs-actual cardinality feedback).
func recordQueryMetrics(reg *obs.Registry, plan *optimizer.Plan, inst *engine.Instrumented) {
	reg.Counter("robustqo_queries_total").Inc()
	reg.Counter("robustqo_rows_returned_total").Add(inst.Stats.Rows)
	reg.Counter("robustqo_plans_total",
		obs.Label{Key: "order", Value: strings.Join(engine.LeafTables(inst), ",")},
		obs.Label{Key: "t", Value: fmt.Sprintf("%g", plan.Confidence())},
	).Inc()
	var walk func(in *engine.Instrumented)
	walk = func(in *engine.Instrumented) {
		if est, ok := plan.EstimateOf(in.Origin); ok {
			reg.Histogram("robustqo_qerror", obs.QErrorBuckets,
				obs.Label{Key: "op", Value: engine.OpName(in)},
			).Observe(obs.QError(est.Rows, float64(in.Stats.Rows)))
		}
		for _, k := range in.Kids {
			walk(k)
		}
	}
	walk(inst)
}
