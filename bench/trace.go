package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"robustqo/internal/core"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; parent indexes the tracer's span list (-1 at the top);
// query numbers the request the span belongs to.
type span struct {
	name       string
	start, end int64
	parent     int
	query      int
}

// tracer records spans in memory. It is used from one goroutine at a
// time. A nil tracer records nothing, so the untraced runs execute the
// same benchmark code with one nil check per layer boundary.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	query int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), query: -1} }

// nextQuery starts a new request; spans begun afterwards carry its number.
func (t *tracer) nextQuery() {
	if t != nil {
		t.query++
	}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.t0)), parent: parent, query: t.query})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered := s.start
		for _, k := range ks {
			lo, hi := spans[k].start, spans[k].end
			if lo < covered {
				lo = covered
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// layerTotals sums self time (ns) per span name over all spans, and
// counts the spans per name.
func layerTotals(spans []span) (selfNS map[string]int64, calls map[string]int) {
	selfNS, calls = map[string]int64{}, map[string]int{}
	for i, d := range selfTimes(spans) {
		selfNS[spans[i].name] += d
		calls[spans[i].name]++
	}
	return selfNS, calls
}

// writeChrome writes spans as Chrome trace events (load the file in
// chrome://tracing or https://ui.perfetto.dev).
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1, Args: map[string]int{"query": s.query, "parent": s.parent}}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tracedEstimator wraps the robust estimator so that every call the
// optimizer or the plan cache makes into package core becomes a span.
// Embedding passes Name, ConfidenceLevel and EstimateGroups through.
// Each call also times a second, discarded Observe on its own, which
// splits the estimate into the synopsis pass and the remainder
// (posterior and quantile inversion) without touching package core.
type tracedEstimator struct {
	*core.BayesEstimator
	tr *tracer
}

// spanned records call as one estimator span, then the probe.
func (e *tracedEstimator) spanned(req core.Request, call func()) {
	id := e.tr.begin("core.estimate")
	call()
	e.tr.end(id)
	id = e.tr.begin("core.observe_probe")
	_, _, _, _ = e.Observe(req) // timing only; the real call reports any error
	e.tr.end(id)
}

func (e *tracedEstimator) Estimate(req core.Request) (est core.Estimate, err error) {
	e.spanned(req, func() { est, err = e.BayesEstimator.Estimate(req) })
	return est, err
}

func (e *tracedEstimator) CredibleInterval(req core.Request, width float64) (lo, hi float64, err error) {
	e.spanned(req, func() { lo, hi, err = e.BayesEstimator.CredibleInterval(req, width) })
	return lo, hi, err
}

func (e *tracedEstimator) PointEstimate(req core.Request) (p float64, err error) {
	e.spanned(req, func() { p, err = e.BayesEstimator.PointEstimate(req) })
	return p, err
}

// withThreshold returns the estimator to plan with at threshold t: the
// bare robust estimator when tr is nil, the traced wrapper otherwise.
func withThreshold(base *core.BayesEstimator, t float64, tr *tracer) (core.Estimator, error) {
	est, err := base.WithThreshold(core.ConfidenceThreshold(t))
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return est, nil
	}
	return &tracedEstimator{BayesEstimator: est, tr: tr}, nil
}
