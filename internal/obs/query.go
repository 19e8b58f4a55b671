package obs

// Query-lifecycle observability: stable query IDs, a structured JSON
// event log, an in-flight registry with progress estimates, and a
// bounded slow-query log. Everything here follows the package's
// determinism discipline — no wall clock is read directly; callers that
// want wall timestamps inject a Now function (the serve path does, the
// deterministic test paths do not).

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// QueryPhase is where a query currently is in its lifecycle.
type QueryPhase int32

// The lifecycle phases, in order.
const (
	PhaseReceived QueryPhase = iota
	PhaseOptimize
	PhaseExecute
	PhaseDone
	PhaseFailed
)

// String implements fmt.Stringer.
func (p QueryPhase) String() string {
	switch p {
	case PhaseReceived:
		return "received"
	case PhaseOptimize:
		return "optimize"
	case PhaseExecute:
		return "execute"
	case PhaseDone:
		return "done"
	case PhaseFailed:
		return "failed"
	default:
		return fmt.Sprintf("phase(%d)", int32(p))
	}
}

// Event is one structured query-lifecycle record: a JSON line in the
// event log. Zero-valued optional fields are omitted from the output.
type Event struct {
	Seq     uint64  `json:"seq"`
	QueryID string  `json:"qid"`
	Event   string  `json:"event"`
	SQL     string  `json:"sql,omitempty"`
	T       float64 `json:"t,omitempty"`        // confidence threshold the plan used
	DOP     int     `json:"dop,omitempty"`      // degree of parallelism chosen
	EstRows float64 `json:"est_rows,omitempty"` // posterior cardinality of the root
	Rows    int64   `json:"rows,omitempty"`
	// PartsPruned/PartsTotal describe partition pruning of the plan's
	// widest pruned scan.
	PartsPruned int    `json:"parts_pruned,omitempty"`
	PartsTotal  int    `json:"parts_total,omitempty"`
	ElapsedUS   int64  `json:"elapsed_us,omitempty"`
	WallUS      int64  `json:"wall_us,omitempty"` // absolute, only when a clock is injected
	Detail      string `json:"detail,omitempty"`
}

// EventLog writes query-lifecycle events as JSON lines to a writer,
// assigning a monotone sequence number per event. A nil *EventLog is a
// valid no-op sink. Emit is safe for concurrent use; lines are written
// atomically under the log's lock.
type EventLog struct {
	// Now, when non-nil, timestamps events with absolute wall
	// microseconds. Nil keeps the log deterministic (sequence only).
	Now func() time.Time

	mu  sync.Mutex
	w   io.Writer
	seq uint64
	err error
}

// NewEventLog returns an event log writing JSON lines to w.
func NewEventLog(w io.Writer) *EventLog { return &EventLog{w: w} }

// Emit assigns the next sequence number and writes the event as one JSON
// line. Write errors are sticky and returned from Err; emission itself
// never fails the query path.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	if l.Now != nil {
		e.WallUS = l.Now().UnixMicro()
	}
	raw, err := json.Marshal(e)
	if err != nil {
		if l.err == nil {
			l.err = err
		}
		return
	}
	if _, err := l.w.Write(append(raw, '\n')); err != nil && l.err == nil {
		l.err = err
	}
}

// Err returns the first write or encode error, if any.
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// QueryLive is the shared mutable state of one in-flight query. The
// engine's instrumentation adds produced rows from the query goroutine
// while /debug/queries reads concurrently, so the hot fields are
// atomics; the identity fields are fixed at Begin and the plan fields
// are set once, before execution starts.
type QueryLive struct {
	ID  string
	SQL string

	// Plan facts, set by StartExecute before any AddRows call.
	T           float64
	DOP         int
	EstRows     float64
	PartsPruned int
	PartsTotal  int

	phase atomic.Int32
	rows  atomic.Int64
}

// SetPhase moves the query to a lifecycle phase.
func (q *QueryLive) SetPhase(p QueryPhase) {
	if q == nil {
		return
	}
	q.phase.Store(int32(p))
}

// Phase returns the current lifecycle phase.
func (q *QueryLive) Phase() QueryPhase {
	if q == nil {
		return PhaseReceived
	}
	return QueryPhase(q.phase.Load())
}

// AddRows records rows produced by the executing plan's root. Nil-safe,
// so the engine's hot path needs no conditional.
func (q *QueryLive) AddRows(n int64) {
	if q == nil {
		return
	}
	q.rows.Add(n)
}

// Rows returns the rows produced so far.
func (q *QueryLive) Rows() int64 {
	if q == nil {
		return 0
	}
	return q.rows.Load()
}

// Progress estimates completion as produced rows over the posterior
// cardinality estimate of the plan root, clamped to [0, 1]. Before the
// plan exists (no estimate yet) it reports 0; a finished query reports 1
// regardless of how wrong the estimate was. Because the denominator is
// the T-quantile of the posterior, a progress bar stuck below 1.0 for a
// long time is itself cardinality feedback: the plan is producing more
// rows than the posterior predicted at confidence T.
func (q *QueryLive) Progress() float64 {
	if q == nil {
		return 0
	}
	if QueryPhase(q.phase.Load()) == PhaseDone {
		return 1
	}
	if q.EstRows <= 0 {
		return 0
	}
	p := float64(q.rows.Load()) / q.EstRows
	if p > 1 {
		p = 1
	}
	return p
}

// QueryView is an immutable snapshot of one in-flight query for
// rendering.
type QueryView struct {
	ID          string
	SQL         string
	Phase       string
	T           float64
	DOP         int
	EstRows     float64
	Rows        int64
	Progress    float64
	PartsPruned int
	PartsTotal  int
}

// ActiveQueries tracks in-flight queries and issues stable query IDs
// (q1, q2, ... in arrival order). All methods are safe for concurrent
// use and nil-tolerant.
type ActiveQueries struct {
	mu     sync.Mutex
	nextID uint64
	live   map[string]*QueryLive
}

// NewActiveQueries returns an empty registry.
func NewActiveQueries() *ActiveQueries {
	return &ActiveQueries{live: make(map[string]*QueryLive)}
}

// Begin registers a new query and returns its live handle with a fresh
// stable ID. On a nil registry it still returns a usable handle (with an
// empty ID) so callers need no branches.
func (a *ActiveQueries) Begin(sql string) *QueryLive {
	if a == nil {
		return &QueryLive{SQL: sql}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextID++
	q := &QueryLive{ID: fmt.Sprintf("q%d", a.nextID), SQL: sql}
	a.live[q.ID] = q
	return q
}

// Done unregisters a finished query.
func (a *ActiveQueries) Done(q *QueryLive) {
	if a == nil || q == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.live, q.ID)
}

// Snapshot returns the in-flight queries ordered by ID issue order.
func (a *ActiveQueries) Snapshot() []QueryView {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	qs := make([]*QueryLive, 0, len(a.live))
	for _, q := range a.live {
		qs = append(qs, q)
	}
	a.mu.Unlock()
	// IDs are q<n>; sort numerically by length-then-lexical, which orders
	// q2 before q10 without parsing.
	sort.Slice(qs, func(i, j int) bool {
		if len(qs[i].ID) != len(qs[j].ID) {
			return len(qs[i].ID) < len(qs[j].ID)
		}
		return qs[i].ID < qs[j].ID
	})
	out := make([]QueryView, len(qs))
	for i, q := range qs {
		out[i] = QueryView{
			ID: q.ID, SQL: q.SQL, Phase: q.Phase().String(),
			T: q.T, DOP: q.DOP, EstRows: q.EstRows,
			Rows: q.Rows(), Progress: q.Progress(),
			PartsPruned: q.PartsPruned, PartsTotal: q.PartsTotal,
		}
	}
	return out
}

// SlowQuery is one captured slow execution: identity, latency, and the
// full EXPLAIN ANALYZE rendering at capture time.
type SlowQuery struct {
	QueryID   string `json:"qid"`
	SQL       string `json:"sql"`
	ElapsedUS int64  `json:"elapsed_us"`
	Analyze   string `json:"analyze"`
}

// SlowLog keeps the most recent slow queries in a bounded ring and
// optionally mirrors each capture as a JSON line to a writer. A nil
// *SlowLog is a valid no-op sink.
type SlowLog struct {
	mu   sync.Mutex
	w    io.Writer // optional mirror
	ring []SlowQuery
	max  int
	err  error
}

// NewSlowLog returns a slow log retaining the last max captures
// (max < 1 selects 32) and mirroring JSON lines to w when w is non-nil.
func NewSlowLog(max int, w io.Writer) *SlowLog {
	if max < 1 {
		max = 32
	}
	return &SlowLog{max: max, w: w}
}

// Record captures one slow query.
func (l *SlowLog) Record(q SlowQuery) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring = append(l.ring, q)
	if len(l.ring) > l.max {
		l.ring = l.ring[len(l.ring)-l.max:]
	}
	if l.w == nil {
		return
	}
	raw, err := json.Marshal(q)
	if err != nil {
		if l.err == nil {
			l.err = err
		}
		return
	}
	if _, err := l.w.Write(append(raw, '\n')); err != nil && l.err == nil {
		l.err = err
	}
}

// Recent returns the retained captures, oldest first.
func (l *SlowLog) Recent() []SlowQuery {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]SlowQuery(nil), l.ring...)
}

// Err returns the first mirror-write error, if any.
func (l *SlowLog) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}
