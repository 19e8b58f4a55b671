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
// 429 + Retry-After instead of collapsing. Every request runs through
// the query lifecycle in lifecycle.go. SIGINT/SIGTERM drains in-flight
// queries, persists the ledger and closes the logs before exit; a log
// that lost lines makes the exit status non-zero.

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
	"robustqo/internal/plancache"
	"robustqo/internal/sqlparse"
	"robustqo/internal/value"
)

// defaultMaxBody bounds /query and /exec request bodies.
const defaultMaxBody = 1 << 20 // 1 MiB

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
	s.answer(w, r, request{sql: sqlText, q: q})
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
	s.answer(w, r, request{sql: st.SQL + " /* exec " + r.FormValue("args") + " */", q: q})
}

// answer runs one request through the query lifecycle under the
// request's ?threshold= and writes the reply. Clients parse its last two
// lines.
func (s *server) answer(w http.ResponseWriter, r *http.Request, req request) {
	est, err := s.estimatorFor(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_threshold", err.Error(), 0)
		return
	}
	req.est = est
	out, err := s.execute(r.Context(), req)
	if err != nil {
		var qe *queryError
		errors.As(err, &qe) // every error execute returns is a *queryError
		writeError(w, qe.status, qe.code, qe.Error(), qe.retryAfter)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "estimator: %s\nestimated cost: %.4f s, estimated rows: %.1f\nplan cache: %s\n",
		out.plan.Estimator, out.plan.EstCost, out.plan.EstRows, out.cache)
	if r.FormValue("analyze") != "" {
		fmt.Fprint(w, "EXPLAIN ANALYZE:\n", out.analyze())
	} else {
		fmt.Fprintf(w, "plan:\n%s", out.plan.Explain())
	}
	fmt.Fprintf(w, "simulated execution: %.4f s\n(%d rows)\n", out.sim, len(out.res.Rows))
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
	var df dbFlags
	df.register(fs)
	var lf logFlags
	lf.register(fs)
	addr := fs.String("debug-addr", "localhost:6060", "listen address for the debug server")
	queryTimeoutMS := fs.Int("query-timeout-ms", 30000, "per-request execution timeout in milliseconds (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain deadline")
	ledgerOut := fs.String("ledger-out", "", "persist the feedback ledger to this file on shutdown")
	admSlots := fs.Int("admission-slots", 0, "concurrent execution slots (0 = 2x CPUs, min 4)")
	admQueue := fs.Int("admission-queue", 0, "bounded admission queue length (0 = default 256)")
	admQueueTimeoutMS := fs.Int("admission-queue-timeout-ms", 0, "max queue wait in milliseconds (0 = default 10s)")
	memBudgetRows := fs.Float64("mem-budget-rows", 0, "per-query memory budget as estimated rows (0 = no budget)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}
	s, err := newServer(df, out)
	if err != nil {
		return err
	}
	s.reqTimeout = time.Duration(*queryTimeoutMS) * time.Millisecond
	s.adm = plancache.NewAdmission(plancache.AdmissionConfig{
		Slots:         *admSlots,
		MaxQueue:      *admQueue,
		QueueTimeout:  time.Duration(*admQueueTimeoutMS) * time.Millisecond,
		MemBudgetRows: *memBudgetRows,
	}, defaultAdmissionSlots(), s.reg)
	err = s.openLogs(lf)
	defer s.closeLogs() // error paths only; shutdown checks closeLogs itself
	if err != nil {
		return err
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
	// the deadline, then persist the ledger and close the logs.
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
		if err := s.saveLedger(*ledgerOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "ledger persisted to %s (%d fingerprints)\n", *ledgerOut, s.led.Len())
	}
	if err := s.closeLogs(); err != nil {
		return fmt.Errorf("lifecycle logs: %w", err)
	}
	fmt.Fprintln(out, "shutdown complete")
	return nil
}
