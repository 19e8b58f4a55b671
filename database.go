package robustqo

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"robustqo/internal/catalog"
	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/histogram"
	"robustqo/internal/optimizer"
	"robustqo/internal/sample"
	"robustqo/internal/sqlparse"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
)

// Database is an in-memory relational database with precomputed
// statistics and a robust cost-based optimizer.
//
// Concurrency: loading (CreateTable, Insert, UpdateStatistics,
// LoadStatistics) must happen-before querying and must not run
// concurrently with it. Once statistics are built, any number of
// sessions may optimize and execute queries concurrently — execution is
// read-only and sessions share only immutable state.
type Database struct {
	store *storage.Database

	ctxMu sync.Mutex
	ctx   *engine.Context // built lazily after data loads

	synopses   *sample.Set
	histograms *histogram.Collection
	sampleSize int
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{store: storage.NewDatabase(catalog.NewCatalog())}
}

// CreateTable validates and registers a table schema.
func (d *Database) CreateTable(s *TableSchema) error {
	_, err := d.store.CreateTable(s)
	d.ctx = nil
	return err
}

// Insert appends rows to the named table. Types must match the schema;
// primary keys must be unique; the call fails on the first bad row.
func (d *Database) Insert(table string, rows ...Row) error {
	t, ok := d.store.Table(table)
	if !ok {
		return fmt.Errorf("robustqo: unknown table %q", table)
	}
	for _, r := range rows {
		if err := t.Append(r); err != nil {
			return err
		}
	}
	d.ctx = nil // indexes must be rebuilt
	return nil
}

// NumRows returns the row count of a table.
func (d *Database) NumRows(table string) (int, error) {
	t, ok := d.store.Table(table)
	if !ok {
		return 0, fmt.Errorf("robustqo: unknown table %q", table)
	}
	return t.NumRows(), nil
}

// Validate checks schema validity (acyclic foreign keys referencing
// primary keys) and referential integrity of the loaded data.
func (d *Database) Validate() error { return d.store.Validate() }

// StatsOptions configures UpdateStatistics.
type StatsOptions struct {
	// SampleSize is the number of tuples per join synopsis (default 500,
	// the paper's choice).
	SampleSize int
	// HistogramBuckets is the per-column bucket count for the baseline
	// histograms (default 250, the paper's description of the commercial
	// system).
	HistogramBuckets int
	// Seed makes sampling reproducible; 0 means a fixed default.
	Seed uint64
}

// UpdateStatistics builds the precomputed statistics both estimators run
// on: join synopses for every table (the robust estimator's samples) and
// single-column equi-depth histograms (the conventional baseline). It is
// the analogue of the paper's UPDATE STATISTICS trigger and must be
// called after loading data and before opening sessions.
func (d *Database) UpdateStatistics(opts StatsOptions) error {
	if opts.SampleSize == 0 {
		opts.SampleSize = sample.DefaultSize
	}
	if opts.SampleSize < 0 {
		return fmt.Errorf("robustqo: negative sample size %d", opts.SampleSize)
	}
	if opts.HistogramBuckets == 0 {
		opts.HistogramBuckets = histogram.DefaultBuckets
	}
	if opts.Seed == 0 {
		opts.Seed = 0x5160D2005 // "SIGMOD 2005"
	}
	if err := d.store.Validate(); err != nil {
		return err
	}
	syn, err := sample.BuildAll(d.store, opts.SampleSize, stats.NewRNG(opts.Seed))
	if err != nil {
		return err
	}
	hists, err := histogram.BuildAllSized(d.store, opts.HistogramBuckets)
	if err != nil {
		return err
	}
	d.synopses = syn
	d.histograms = hists
	d.sampleSize = opts.SampleSize
	return nil
}

// context lazily (re)builds indexes; safe for concurrent callers.
func (d *Database) context() (*engine.Context, error) {
	d.ctxMu.Lock()
	defer d.ctxMu.Unlock()
	if d.ctx != nil {
		return d.ctx, nil
	}
	ctx, err := engine.NewContext(d.store)
	if err != nil {
		return nil, err
	}
	d.ctx = ctx
	return ctx, nil
}

// EstimatorKind selects the cardinality estimation technique a session
// uses.
type EstimatorKind int

const (
	// RobustSampling is the paper's estimator: Bayesian inference over
	// join synopses, condensed at the session's confidence threshold. An
	// expression no synopsis covers falls back to per-table samples
	// combined under independence, and to a magic number when its root
	// has no sample (Section 3.5).
	RobustSampling EstimatorKind = iota
	// HistogramAVI is the conventional baseline: equi-depth histograms
	// combined under the attribute-value-independence assumption.
	HistogramAVI
)

// Session runs queries under one choice of estimator, confidence
// threshold, and prior. Sessions are cheap; statistics are shared. A
// session plans with the statistics current when it was opened.
type Session struct {
	db        *Database
	threshold ConfidenceThreshold
	// est is the session's estimator, built once. A robust one is copied
	// at each query's threshold, and the copies share its quantile cache.
	est core.Estimator
}

// Session opens a robust-estimation session at the given system-wide
// confidence threshold with the Jeffreys prior.
func (d *Database) Session(t ConfidenceThreshold) (*Session, error) {
	return d.SessionWith(RobustSampling, t, Jeffreys)
}

// SessionWith opens a session with full control over the estimation
// technique, threshold (ignored by HistogramAVI), and prior.
func (d *Database) SessionWith(kind EstimatorKind, t ConfidenceThreshold, prior Prior) (*Session, error) {
	s := &Session{db: d, threshold: t}
	switch kind {
	case RobustSampling:
		if err := prior.Validate(); err != nil {
			return nil, err
		}
		if d.synopses == nil {
			return nil, fmt.Errorf("robustqo: call UpdateStatistics before opening a robust session")
		}
		bayes, err := core.NewBayesEstimator(d.synopses, t)
		if err != nil {
			return nil, err
		}
		bayes.Prior = prior
		s.est = bayes
	case HistogramAVI:
		if d.histograms == nil {
			return nil, fmt.Errorf("robustqo: call UpdateStatistics before opening a histogram session")
		}
		hist, err := core.NewHistogramEstimator(d.histograms, d.store.Catalog)
		if err != nil {
			return nil, err
		}
		s.est = hist
	default:
		return nil, fmt.Errorf("robustqo: unknown estimator kind %d", int(kind))
	}
	return s, nil
}

// estimator returns the session's estimator at threshold t.
func (s *Session) estimator(t ConfidenceThreshold) (core.Estimator, error) {
	if b, ok := s.est.(*core.BayesEstimator); ok {
		return b.WithThreshold(t)
	}
	return s.est, nil
}

// Result is a fully executed query result.
type Result struct {
	// Columns are the output column names.
	Columns []string
	// Rows are the result tuples.
	Rows []Row
	// Plan is the executed physical plan, rendered as a tree.
	Plan string
	// EstimatedSeconds is what the optimizer predicted the plan would
	// cost under the simulated cost model.
	EstimatedSeconds float64
	// SimulatedSeconds is the deterministic simulated execution time:
	// the cost model applied to the work the plan actually performed.
	SimulatedSeconds float64
}

// Query optimizes and executes q at the session's threshold.
func (s *Session) Query(q *Query) (*Result, error) {
	return s.QueryWithThreshold(q, s.threshold)
}

// QueryWithThreshold overrides the session threshold for one query — the
// paper's query-hint mechanism (Section 6.2.5). Histogram sessions ignore
// the threshold.
func (s *Session) QueryWithThreshold(q *Query, t ConfidenceThreshold) (*Result, error) {
	plan, ctx, err := s.plan(q, t)
	if err != nil {
		return nil, err
	}
	res, _, secs, err := engine.Run(ctx, plan.Root)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(res.Schema.Fields))
	for i, f := range res.Schema.Fields {
		if f.Table != "" {
			cols[i] = f.Table + "." + f.Column
		} else {
			cols[i] = f.Column
		}
	}
	return &Result{
		Columns:          cols,
		Rows:             res.Rows,
		Plan:             engine.Explain(plan.Root),
		EstimatedSeconds: plan.EstCost,
		SimulatedSeconds: secs,
	}, nil
}

// QuerySQL parses a SQL SELECT statement and executes it at the
// session's threshold.
func (s *Session) QuerySQL(sql string) (*Result, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.Query(q)
}

// Explain optimizes q and returns the chosen plan without executing it.
func (s *Session) Explain(q *Query) (string, error) {
	plan, _, err := s.plan(q, s.threshold)
	if err != nil {
		return "", err
	}
	return engine.Explain(plan.Root), nil
}

// EstimateRows returns the session's cardinality estimate for the
// foreign-key join of tables under pred — the estimation module called
// directly, for inspection and testing.
func (s *Session) EstimateRows(tables []string, pred Expr) (float64, error) {
	est, err := s.estimator(s.threshold)
	if err != nil {
		return 0, err
	}
	e, err := est.Estimate(core.Request{Tables: tables, Pred: pred})
	if err != nil {
		return 0, err
	}
	return e.Rows, nil
}

func (s *Session) plan(q *Query, t ConfidenceThreshold) (*optimizer.Plan, *engine.Context, error) {
	ctx, err := s.db.context()
	if err != nil {
		return nil, nil, err
	}
	est, err := s.estimator(t)
	if err != nil {
		return nil, nil, err
	}
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		return nil, nil, err
	}
	plan, err := opt.Optimize(q)
	if err != nil {
		return nil, nil, err
	}
	return plan, ctx, nil
}

// statisticsWireVersion versions the combined statistics bundle format:
// the bundle's own layout (this header, the synopsis set, the
// histograms), not the formats inside it. The synopsis set carries its
// own header and refuses incompatible versions itself; version-1 bundles
// are refused here rather than misread.
const statisticsWireVersion = 2

// SaveStatistics serializes the database's precomputed statistics (join
// synopses and histograms) so a later process over the same schema can
// LoadStatistics instead of rescanning the data. UpdateStatistics must
// have run first.
func (d *Database) SaveStatistics(w io.Writer) error {
	if d.synopses == nil || d.histograms == nil {
		return fmt.Errorf("robustqo: no statistics to save; call UpdateStatistics first")
	}
	if err := binary.Write(w, binary.LittleEndian, int32(statisticsWireVersion)); err != nil {
		return err
	}
	if err := d.synopses.Save(w); err != nil {
		return err
	}
	return d.histograms.Save(w)
}

// LoadStatistics restores statistics written by SaveStatistics. The
// database must hold the same schema the statistics were built against;
// the synopses are validated structurally against the catalog.
func (d *Database) LoadStatistics(r io.Reader) error {
	var version int32
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return fmt.Errorf("robustqo: reading statistics header: %v", err)
	}
	if version != statisticsWireVersion {
		return fmt.Errorf("robustqo: unsupported statistics version %d", version)
	}
	syn, err := sample.LoadSet(r, d.store.Catalog)
	if err != nil {
		return err
	}
	hists, err := histogram.LoadCollection(r)
	if err != nil {
		return err
	}
	d.synopses = syn
	d.histograms = hists
	return nil
}
