package main

// The serve subcommand runs a debug HTTP server over a generated
// database: /metrics exposes the text metrics registry, /query
// optimizes and executes ad-hoc SQL (with per-request confidence
// thresholds — the paper's robustness knob as a URL parameter),
// /prepare + /exec provide prepared statements over the plan cache,
// /debug/queries shows in-flight queries with posterior-based progress
// estimates plus plan-cache/admission state and the recent slow-query
// captures, /debug/ledger serves the cardinality feedback ledger, and
// the standard net/http/pprof endpoints hang off /debug/pprof/.
//
// The serve path is built for sustained concurrent load: optimized
// plans are memoized in a sharded plan cache keyed by query template and
// binding (a repeated statement or prepared binding is served without
// re-optimizing), and an admission gate bounds
// concurrent execution with a bounded queue, shedding overload with
// 429 + Retry-After instead of collapsing. SIGINT/SIGTERM drains
// in-flight queries and flushes the ledger/event log before exit.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"robustqo/internal/catalog"
	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/obs"
	"robustqo/internal/obs/ledger"
	"robustqo/internal/optimizer"
	"robustqo/internal/plancache"
	"robustqo/internal/sample"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
	"robustqo/internal/value"
)

// defaultMaxBody bounds /query and /exec request bodies.
const defaultMaxBody = 1 << 20 // 1 MiB

// server holds the shared state behind the debug endpoints. The
// database, indexes, and estimator are immutable after startup; the
// registry, ledger, live registry, plan cache, admission gate, and logs
// are internally synchronized — so handlers need no lock.
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

	led    *ledger.Ledger
	active *obs.ActiveQueries
	events *obs.EventLog // nil unless -events names a file
	slow   *obs.SlowLog
	slowMS int
}

func newServer(lines int, estimator string, threshold float64, sampleSize int, seed uint64, parallelism int) (*server, error) {
	db, err := tpch.Generate(tpch.Config{Lines: lines, Seed: seed})
	if err != nil {
		return nil, err
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		return nil, err
	}
	est, err := buildEstimator(db, estimator, threshold, sampleSize, seed)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	s := &server{
		ctx: ctx, est: est, reg: reg, dop: parallelism,
		cache:      plancache.New(1024, reg),
		adm:        plancache.NewAdmission(plancache.AdmissionConfig{}, defaultAdmissionSlots(), reg),
		stmts:      newStmtRegistry(),
		reqTimeout: 30 * time.Second,
		maxBody:    defaultMaxBody,
		led:        ledger.New(0),
		active:     obs.NewActiveQueries(),
		slow:       obs.NewSlowLog(0, nil),
		slowMS:     100,
	}
	// Engine-side metering (hash-join builds, pre-size hits, modeled
	// rehashes) lands in the same registry /metrics serves — including
	// the exchange utilization series — as do the ledger's own counters.
	ctx.Metrics = s.reg
	s.led.Metrics = s.reg
	if b, ok := est.(*core.BayesEstimator); ok {
		s.bayes = b
	}
	return s, nil
}

// defaultAdmissionSlots sizes the token pool: twice the CPUs, floor 4,
// so serial deployments still overlap I/O-free queries while large
// machines admit proportionally more.
func defaultAdmissionSlots() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}

// stmtRegistry holds server-side prepared statements.
type stmtRegistry struct {
	mu   sync.Mutex
	m    map[string]*stmt
	next int
}

type stmt struct {
	ID  string
	SQL string
	Tpl *plancache.Template
}

func newStmtRegistry() *stmtRegistry {
	return &stmtRegistry{m: make(map[string]*stmt)}
}

func (r *stmtRegistry) add(sqlText string, tpl *plancache.Template) *stmt {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	st := &stmt{ID: "s" + strconv.Itoa(r.next), SQL: sqlText, Tpl: tpl}
	r.m[st.ID] = st
	return st
}

func (r *stmtRegistry) get(id string) (*stmt, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.m[id]
	return st, ok
}

func (r *stmtRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// mux wires the debug endpoints. pprof handlers are registered
// explicitly because the server does not use http.DefaultServeMux.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/prepare", s.handlePrepare)
	mux.HandleFunc("/exec", s.handleExec)
	mux.HandleFunc("/debug/queries", s.handleQueries)
	mux.HandleFunc("/debug/ledger", s.handleLedger)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprintf(w, `robustqo debug server (estimator: %s)

endpoints:
  /metrics                          text metrics exposition
  /query?sql=SELECT+...             optimize and execute SQL
         &threshold=0.95            per-query confidence threshold
         &analyze=1                 include the EXPLAIN ANALYZE tree
  /prepare?sql=SELECT+...           normalize to a prepared statement
  /exec?stmt=s1&args=v1,v2          bind + execute a prepared statement
  /debug/queries                    in-flight queries with progress
                                    estimates, plan cache + admission
                                    state, recent slow queries
  /debug/ledger?n=10                cardinality feedback: worst Q-error
                                    fingerprints and per-table drift
  /debug/pprof/                     Go runtime profiles
`, s.est.Name())
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.reg.WriteText(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// jsonError is the structured error body every failure path returns.
type jsonError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// writeError emits a structured JSON error. retryAfter > 0 adds the
// Retry-After header (whole seconds, minimum 1).
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		secs := int(retryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	var body jsonError
	body.Error.Code = code
	body.Error.Message = msg
	_ = json.NewEncoder(w).Encode(&body)
}

// estimatorFor resolves the per-request estimator: the server default,
// or a re-thresholded robust estimator when ?threshold= is present.
func (s *server) estimatorFor(r *http.Request) (core.Estimator, error) {
	raw := r.FormValue("threshold")
	if raw == "" {
		return s.est, nil
	}
	if s.bayes == nil {
		return nil, fmt.Errorf("threshold only applies to the robust estimator")
	}
	t, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return nil, fmt.Errorf("bad threshold: %v", err)
	}
	return s.bayes.WithThreshold(core.ConfidenceThreshold(t))
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	sqlText := r.FormValue("sql")
	if sqlText == "" {
		writeError(w, http.StatusBadRequest, "missing_sql", "missing sql parameter", 0)
		return
	}
	q, err := sqlparse.Parse(sqlText)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse_error", err.Error(), 0)
		return
	}
	est, err := s.estimatorFor(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_threshold", err.Error(), 0)
		return
	}
	s.execute(w, r, sqlText, q, est)
}

// handlePrepare normalizes a query into a server-side prepared
// statement and returns its id and parameter count as JSON.
func (s *server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	sqlText := r.FormValue("sql")
	if sqlText == "" {
		writeError(w, http.StatusBadRequest, "missing_sql", "missing sql parameter", 0)
		return
	}
	q, err := sqlparse.Parse(sqlText)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse_error", err.Error(), 0)
		return
	}
	tpl := plancache.Normalize(q)
	st := s.stmts.add(sqlText, tpl)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"stmt":   st.ID,
		"params": len(tpl.Params),
	})
}

// handleExec binds a prepared statement to new parameter values and
// executes it through the plan cache: ?stmt=s1&args=100,300 (args in
// slot order; dates as day numbers or YYYY-MM-DD).
func (s *server) handleExec(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	st, ok := s.stmts.get(r.FormValue("stmt"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_stmt", "unknown prepared statement id", 0)
		return
	}
	params, err := parseArgs(r.FormValue("args"), st.Tpl)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_args", err.Error(), 0)
		return
	}
	q, err := st.Tpl.Bind(params)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_args", err.Error(), 0)
		return
	}
	est, err := s.estimatorFor(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_threshold", err.Error(), 0)
		return
	}
	s.execute(w, r, st.SQL+" /* exec "+r.FormValue("args")+" */", q, est)
}

// parseArgs parses a comma-separated binding list against the
// template's slot kinds.
func parseArgs(raw string, tpl *plancache.Template) ([]value.Value, error) {
	if len(tpl.Kinds) == 0 {
		if strings.TrimSpace(raw) != "" {
			return nil, fmt.Errorf("statement takes no parameters")
		}
		return nil, nil
	}
	parts := strings.Split(raw, ",")
	if len(parts) != len(tpl.Kinds) {
		return nil, fmt.Errorf("statement takes %d parameters, got %d", len(tpl.Kinds), len(parts))
	}
	out := make([]value.Value, len(parts))
	for i, p := range parts {
		v, err := parseArg(strings.TrimSpace(p), tpl.Kinds[i])
		if err != nil {
			return nil, fmt.Errorf("parameter %d: %v", i, err)
		}
		out[i] = v
	}
	return out, nil
}

func parseArg(p string, k catalog.Type) (value.Value, error) {
	switch k {
	case catalog.Int:
		n, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return value.Value{}, err
		}
		return value.Int(n), nil
	case catalog.Date:
		if n, err := strconv.ParseInt(p, 10, 64); err == nil {
			return value.Date(n), nil
		}
		days, err := value.ParseDate(p)
		if err != nil {
			return value.Value{}, err
		}
		return value.Date(days), nil
	case catalog.Float:
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return value.Value{}, err
		}
		return value.Float(f), nil
	case catalog.String:
		return value.Str(p), nil
	default:
		return value.Value{}, fmt.Errorf("unsupported parameter kind")
	}
}

// execute is the shared serve pipeline: admission → plan cache →
// instrument → guarded execution → metrics/logs → response.
func (s *server) execute(w http.ResponseWriter, r *http.Request, sqlText string, q *optimizer.Query, est core.Estimator) {
	// Admission first: overload is decided before any per-query work.
	release, err := s.adm.Admit(r.Context())
	if err != nil {
		switch {
		case errors.Is(err, plancache.ErrShed), errors.Is(err, plancache.ErrTimeout):
			writeError(w, http.StatusTooManyRequests, "overloaded", err.Error(), s.adm.RetryAfter())
		case errors.Is(err, plancache.ErrClosed):
			writeError(w, http.StatusServiceUnavailable, "shutting_down", err.Error(), s.adm.RetryAfter())
		default: // client went away while queued
			writeError(w, http.StatusServiceUnavailable, "cancelled", err.Error(), 0)
		}
		return
	}
	defer release()

	rctx := r.Context()
	if s.reqTimeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(rctx, s.reqTimeout)
		defer cancel()
	}

	live := s.active.Begin(sqlText)
	defer s.active.Done(live)
	start := time.Now()
	s.events.Emit(obs.Event{QueryID: live.ID, Event: "received", SQL: sqlText})
	fail := func(status int, code string, err error) {
		live.SetPhase(obs.PhaseFailed)
		s.events.Emit(obs.Event{QueryID: live.ID, Event: "failed", Detail: err.Error()})
		writeError(w, status, code, err.Error(), 0)
	}

	dop := s.adm.ClampDOP(s.dop)
	live.SetPhase(obs.PhaseOptimize)
	env := plancache.Env{
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
			return opt.Optimize(q)
		},
	}
	plan, outcome, err := s.cache.Plan(env, q)
	if err != nil {
		fail(http.StatusBadRequest, "optimize_error", err)
		return
	}
	if err := s.adm.CheckMemory(plan.EstRows); err != nil {
		fail(http.StatusTooManyRequests, "mem_budget", err)
		return
	}
	inst := engine.InstrumentOpts(plan.Root, engine.InstrumentOptions{
		EstimateOf: plan.EstimateOf,
		Ledger:     s.led,
		QueryID:    live.ID,
		Live:       live,
	})
	live.T = plan.Confidence()
	live.DOP = dop
	live.EstRows = plan.EstRows
	live.PartsPruned, live.PartsTotal = planPruning(inst, plan.EstimateOf)
	s.events.Emit(obs.Event{QueryID: live.ID, Event: "optimized", T: live.T, DOP: dop,
		EstRows: plan.EstRows, PartsPruned: live.PartsPruned, PartsTotal: live.PartsTotal,
		ElapsedUS: time.Since(start).Microseconds()})
	live.SetPhase(obs.PhaseExecute)
	// The cancel guard sits outside the instrumented root: aborting
	// still closes the instrumented tree, which flushes ledger feedback
	// for the work that did complete.
	res, counters, simTime, err := engine.Run(s.ctx, engine.Guard(rctx, inst))
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			fail(http.StatusGatewayTimeout, "query_timeout", err)
		case errors.Is(err, context.Canceled):
			fail(http.StatusServiceUnavailable, "cancelled", err)
		default:
			fail(http.StatusInternalServerError, "execute_error", err)
		}
		return
	}
	live.SetPhase(obs.PhaseDone)
	elapsed := time.Since(start)
	s.reg.Histogram("robustqo_query_latency_seconds", obs.LatencyBuckets).Observe(elapsed.Seconds())
	s.events.Emit(obs.Event{QueryID: live.ID, Event: "done",
		Rows: int64(len(res.Rows)), ElapsedUS: elapsed.Microseconds()})
	if elapsed >= time.Duration(s.slowMS)*time.Millisecond {
		s.slow.Record(obs.SlowQuery{
			QueryID: live.ID, SQL: sqlText, ElapsedUS: elapsed.Microseconds(),
			Analyze: engine.ExplainAnalyze(inst, engine.AnalyzeOptions{
				EstimateOf: plan.EstimateOf,
				Timings:    true,
				Totals:     &counters,
			}),
		})
	}
	recordQueryMetrics(s.reg, plan, inst)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "estimator: %s\nestimated cost: %.4f s, estimated rows: %.1f\nplan cache: %s\n",
		plan.Estimator, plan.EstCost, plan.EstRows, outcome)
	if r.FormValue("analyze") != "" {
		fmt.Fprint(w, "EXPLAIN ANALYZE:\n")
		fmt.Fprint(w, engine.ExplainAnalyze(inst, engine.AnalyzeOptions{
			EstimateOf: plan.EstimateOf,
			Timings:    true,
			Totals:     &counters,
		}))
	} else {
		fmt.Fprintf(w, "plan:\n%s", plan.Explain())
	}
	fmt.Fprintf(w, "simulated execution: %.4f s\n(%d rows)\n", simTime, len(res.Rows))
}

// handleQueries renders the in-flight queries with posterior-based
// progress estimates, the plan-cache and admission state, and the
// recent slow-query captures.
func (s *server) handleQueries(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	views := s.active.Snapshot()
	fmt.Fprintf(w, "%d in-flight queries\n\n", len(views))
	if len(views) > 0 {
		fmt.Fprintf(w, "%-6s %-9s %-5s %-4s %12s %12s %9s %10s  %s\n",
			"qid", "phase", "T", "dop", "est rows", "rows", "progress", "pruned", "sql")
		for _, v := range views {
			pruned := ""
			if v.PartsTotal > 0 {
				pruned = fmt.Sprintf("%d/%d", v.PartsPruned, v.PartsTotal)
			}
			fmt.Fprintf(w, "%-6s %-9s %-5g %-4d %12.1f %12d %8.1f%% %10s  %s\n",
				v.ID, v.Phase, v.T, v.DOP, v.EstRows, v.Rows, v.Progress*100, pruned, v.SQL)
		}
	}

	fmt.Fprintf(w, "\nplan cache: %d entries, %d prepared statements\n",
		s.cache.Len(), s.stmts.len())
	fmt.Fprintf(w, "  hits=%d misses=%d invalidations=%d evictions=%d\n",
		s.reg.Counter("robustqo_plancache_hits_total").Value(),
		s.reg.Counter("robustqo_plancache_misses_total").Value(),
		s.reg.Counter("robustqo_plancache_invalidations_total").Value(),
		s.reg.Counter("robustqo_plancache_evictions_total").Value())
	cfg := s.adm.Config()
	fmt.Fprintf(w, "admission: %d/%d slots in use, %d queued (max %d)\n",
		s.adm.InFlight(), cfg.Slots, s.adm.Waiting(), cfg.MaxQueue)
	fmt.Fprintf(w, "  admitted=%d shed=%d timeouts=%d cancelled=%d mem_rejects=%d\n",
		s.reg.Counter("robustqo_admission_admitted_total").Value(),
		s.reg.Counter("robustqo_admission_shed_total").Value(),
		s.reg.Counter("robustqo_admission_timeouts_total").Value(),
		s.reg.Counter("robustqo_admission_cancelled_total").Value(),
		s.reg.Counter("robustqo_admission_mem_rejects_total").Value())

	slow := s.slow.Recent()
	fmt.Fprintf(w, "\n%d recent slow queries (threshold %dms)\n", len(slow), s.slowMS)
	for i := len(slow) - 1; i >= 0; i-- {
		q := slow[i]
		fmt.Fprintf(w, "\n[%s] %.1fms  %s\n%s", q.QueryID, float64(q.ElapsedUS)/1000, q.SQL, q.Analyze)
	}
}

// handleLedger renders the cardinality feedback ledger: the worst
// Q-error fingerprints (?n= bounds the list) and per-table drift.
func (s *server) handleLedger(w http.ResponseWriter, r *http.Request) {
	n := 10
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			http.Error(w, "bad n: "+err.Error(), http.StatusBadRequest)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%d fingerprints, %d observations, %d dropped\n\nworst fingerprints by Q-error:\n",
		s.led.Len(), s.led.Ordinal(), s.led.Dropped())
	renderTop(w, s.led.TopQError(n))
	fmt.Fprintf(w, "\nper-table drift:\n")
	renderDrift(w, s.led.Drift())
}

func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("debug-addr", "localhost:6060", "listen address for the debug server")
	lines := fs.Int("lines", 60000, "lineitem rows to generate")
	threshold := fs.Float64("threshold", 0.8, "default confidence threshold in (0,1)")
	estimator := fs.String("estimator", "robust", "cardinality estimator: robust or histogram")
	sampleSize := fs.Int("samplesize", sample.DefaultSize, "synopsis tuples")
	seed := fs.Uint64("seed", 2005, "random seed")
	dop := fs.Int("parallelism", 1, "max degree of parallelism for eligible scans (1 = serial)")
	slowMS := fs.Int("slow-query-ms", 100, "slow-query latency threshold in milliseconds")
	slowLogFile := fs.String("slow-log", "", "mirror slow-query captures as JSON lines to this file")
	eventsFile := fs.String("events", "", "append query-lifecycle JSON lines to this file")
	queryTimeoutMS := fs.Int("query-timeout-ms", 30000, "per-request execution timeout in milliseconds (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain deadline")
	ledgerOut := fs.String("ledger-out", "", "persist the feedback ledger to this file on shutdown")
	admSlots := fs.Int("admission-slots", 0, "concurrent execution slots (0 = 2x CPUs, min 4)")
	admQueue := fs.Int("admission-queue", 0, "bounded admission queue length (0 = default 256)")
	admQueueTimeoutMS := fs.Int("admission-queue-timeout-ms", 0, "max queue wait in milliseconds (0 = default 10s)")
	maxQueryDOP := fs.Int("max-query-dop", 0, "per-query DOP budget (0 = no clamp)")
	memBudgetRows := fs.Float64("mem-budget-rows", 0, "per-query memory budget as estimated rows (0 = no budget)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}
	fmt.Fprintf(out, "generating TPC-H-like data (%d lineitem rows)...\n", *lines)
	s, err := newServer(*lines, *estimator, *threshold, *sampleSize, *seed, *dop)
	if err != nil {
		return err
	}
	s.slowMS = *slowMS
	s.reqTimeout = time.Duration(*queryTimeoutMS) * time.Millisecond
	s.adm = plancache.NewAdmission(plancache.AdmissionConfig{
		Slots:         *admSlots,
		MaxQueue:      *admQueue,
		QueueTimeout:  time.Duration(*admQueueTimeoutMS) * time.Millisecond,
		MaxQueryDOP:   *maxQueryDOP,
		MemBudgetRows: *memBudgetRows,
	}, defaultAdmissionSlots(), s.reg)
	if *slowLogFile != "" {
		fh, err := os.Create(*slowLogFile)
		if err != nil {
			return err
		}
		defer fh.Close()
		s.slow = obs.NewSlowLog(0, fh)
	}
	if *eventsFile != "" {
		fh, err := os.Create(*eventsFile)
		if err != nil {
			return err
		}
		defer fh.Close()
		s.events = obs.NewEventLog(fh)
		s.events.Now = time.Now
	}

	srv := &http.Server{Addr: *addr, Handler: s.mux()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(out, "debug server listening on http://%s/ (metrics, query, prepare/exec, debug/queries, debug/ledger, pprof)\n", *addr)

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err // listener failed before any signal
	case <-sigCtx.Done():
	}

	// Graceful shutdown: stop admitting, drain in-flight queries up to
	// the deadline, then flush the ledger. The event/slow-log files are
	// flushed by their deferred Close.
	fmt.Fprintf(out, "shutdown signal received; draining (deadline %s)...\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.adm.Close(drainCtx); err != nil {
		fmt.Fprintf(out, "drain incomplete: %v\n", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(out, "http shutdown: %v\n", err)
	}
	if *ledgerOut != "" {
		fh, err := os.Create(*ledgerOut)
		if err != nil {
			return fmt.Errorf("persist ledger: %w", err)
		}
		if err := s.led.Save(fh); err != nil {
			fh.Close()
			return fmt.Errorf("persist ledger: %w", err)
		}
		if err := fh.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "ledger persisted to %s (%d fingerprints)\n", *ledgerOut, s.led.Len())
	}
	fmt.Fprintln(out, "shutdown complete")
	return nil
}
