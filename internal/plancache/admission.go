package plancache

import (
	"context"
	"errors"
	"sync"
	"time"

	"robustqo/internal/obs"
)

// Admission control protects the serve path from overload: a fixed pool
// of execution tokens bounds concurrent query execution, a bounded FIFO
// queue absorbs bursts, and everything beyond the queue is shed
// immediately with a retry hint — graceful degradation instead of
// collapse, per the ROADMAP's millions-of-users north star.
//
// The state machine per request (DESIGN.md §13):
//
//	arrive ── tokens available ──────────────→ ADMITTED
//	   │
//	   └─ queue not full → QUEUED ─ token freed ─→ ADMITTED
//	        │                │            │
//	        │                │            └─ ctx cancelled → CANCELLED
//	        │                └─ wait > QueueTimeout → TIMED OUT (shed)
//	        └─ queue full → SHED (429 + Retry-After)
//
// After admission, the per-query budget applies: a plan whose estimated
// cardinality exceeds MemBudgetRows is rejected before execution starts
// (the estimate is the optimizer's posterior T-quantile — the robust,
// not optimistic, number).

// Overload classification errors. The serve layer maps ErrShed and
// ErrTimeout to 429 + Retry-After, ErrClosed to 503, and ErrMemBudget
// to 429 (the query would exceed its memory budget at any load).
var (
	ErrShed      = errors.New("plancache: admission queue full")
	ErrTimeout   = errors.New("plancache: admission queue wait timed out")
	ErrClosed    = errors.New("plancache: server is shutting down")
	ErrMemBudget = errors.New("plancache: plan exceeds the per-query memory budget")
)

// AdmissionConfig sizes the gate. Zero values select the documented
// defaults, chosen to be generous: admission exists to bound worst-case
// concurrency, not to throttle ordinary load.
type AdmissionConfig struct {
	// Slots is the number of queries that may execute concurrently.
	// Default: 2×GOMAXPROCS as reported by the caller via DefaultSlots.
	Slots int
	// MaxQueue bounds how many requests may wait for a slot before
	// arrivals are shed. Default 256.
	MaxQueue int
	// QueueTimeout bounds how long one request may wait before it is
	// shed. Default 10s.
	QueueTimeout time.Duration
	// MemBudgetRows rejects plans whose estimated output cardinality
	// exceeds this many rows. 0 means no budget.
	MemBudgetRows float64
	// RetryAfter is the hint returned with shed requests. Default 1s.
	RetryAfter time.Duration
}

func (c AdmissionConfig) withDefaults(defaultSlots int) AdmissionConfig {
	if c.Slots <= 0 {
		c.Slots = defaultSlots
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Admission is the token-based concurrency gate. All methods are safe
// for concurrent use.
type Admission struct {
	cfg    AdmissionConfig
	tokens chan struct{}
	reg    *obs.Registry

	mu      sync.Mutex
	waiting int
	closed  bool
}

// NewAdmission builds a gate. defaultSlots sizes the token pool when
// cfg.Slots is zero (callers pass a function of GOMAXPROCS). Metrics are
// exported to reg when non-nil.
func NewAdmission(cfg AdmissionConfig, defaultSlots int, reg *obs.Registry) *Admission {
	cfg = cfg.withDefaults(defaultSlots)
	a := &Admission{cfg: cfg, tokens: make(chan struct{}, cfg.Slots), reg: reg}
	for i := 0; i < cfg.Slots; i++ {
		a.tokens <- struct{}{}
	}
	return a
}

// Config returns the effective (defaulted) configuration.
func (a *Admission) Config() AdmissionConfig { return a.cfg }

// Waiting returns the instantaneous queue depth.
func (a *Admission) Waiting() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiting
}

// InFlight returns the number of currently executing (admitted,
// unreleased) queries.
func (a *Admission) InFlight() int { return cap(a.tokens) - len(a.tokens) }

// Admit blocks until an execution token is available, the queue
// overflows, the wait times out, or ctx is cancelled. On success the
// returned release function MUST be called exactly once when the query
// finishes (or is abandoned).
func (a *Admission) Admit(ctx context.Context) (release func(), err error) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		if a.reg != nil {
			a.reg.Counter("robustqo_admission_closed_rejects_total").Inc()
		}
		return nil, ErrClosed
	}
	depth := a.waiting
	if depth >= a.cfg.MaxQueue {
		a.mu.Unlock()
		if a.reg != nil {
			a.reg.Counter("robustqo_admission_shed_total").Inc()
		}
		return nil, ErrShed
	}
	a.waiting++
	a.mu.Unlock()

	if a.reg != nil {
		a.reg.Histogram("robustqo_admission_queue_depth", obs.DepthBuckets).Observe(float64(depth))
	}

	start := time.Now()
	defer func() {
		a.mu.Lock()
		a.waiting--
		a.mu.Unlock()
		if a.reg != nil {
			a.reg.Histogram("robustqo_admission_queue_wait_seconds", obs.LatencyBuckets).
				Observe(time.Since(start).Seconds())
		}
	}()

	// Fast path: token immediately available.
	select {
	case <-a.tokens:
		if a.reg != nil {
			a.reg.Counter("robustqo_admission_admitted_total").Inc()
		}
		return a.releaseFunc(), nil
	default:
	}

	timer := time.NewTimer(a.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case <-a.tokens:
		if a.reg != nil {
			a.reg.Counter("robustqo_admission_admitted_total").Inc()
		}
		return a.releaseFunc(), nil
	case <-timer.C:
		if a.reg != nil {
			a.reg.Counter("robustqo_admission_timeouts_total").Inc()
		}
		return nil, ErrTimeout
	case <-ctx.Done():
		if a.reg != nil {
			a.reg.Counter("robustqo_admission_cancelled_total").Inc()
		}
		return nil, ctx.Err()
	}
}

func (a *Admission) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.tokens <- struct{}{}
		})
	}
}

// CheckMemory rejects a plan whose estimated result cardinality exceeds
// the per-query memory budget. Called between optimization and
// execution, with the plan's robust (T-quantile) row estimate.
func (a *Admission) CheckMemory(estRows float64) error {
	if a.cfg.MemBudgetRows > 0 && estRows > a.cfg.MemBudgetRows {
		if a.reg != nil {
			a.reg.Counter("robustqo_admission_mem_rejects_total").Inc()
		}
		return ErrMemBudget
	}
	return nil
}

// RetryAfter returns the shed-response retry hint.
func (a *Admission) RetryAfter() time.Duration { return a.cfg.RetryAfter }

// Close stops admitting new queries (subsequent Admit calls fail with
// ErrClosed) and waits until every in-flight query has released its
// token or the context expires. It is the drain step of graceful
// shutdown.
func (a *Admission) Close(ctx context.Context) error {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	for i := 0; i < cap(a.tokens); i++ {
		select {
		case <-a.tokens:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
