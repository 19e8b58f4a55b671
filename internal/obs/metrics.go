package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one dimension of a metric series, e.g. {op, SeqScan}.
type Label struct{ Key, Value string }

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Add increases the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution metric. Bounds are inclusive
// upper bucket bounds in ascending order; observations above the last
// bound land in an implicit +Inf bucket.
type Histogram struct {
	name   string
	labels []Label
	bounds []float64

	mu     sync.Mutex
	counts []int64
	sum    float64
	n      int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Quantile estimates the p-th quantile (0 < p < 1) from the bucket
// counts, interpolating linearly inside the bucket the rank falls in —
// the standard Prometheus histogram_quantile estimate. The estimate is
// clamped to the last finite bound for ranks in the +Inf bucket, and the
// result is 0 when the histogram is empty.
func (h *Histogram) Quantile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := p * float64(h.n)
	cum := int64(0)
	for i, c := range h.counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(cum))/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// Registry is a process-wide metrics store: named counter and histogram
// series keyed by name plus sorted labels. All methods are safe for
// concurrent use, and the text exposition is deterministic (series
// sorted by key) so it can be pinned in tests.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// seriesKey renders name{k="v",...} with labels sorted by key.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns the counter series for name+labels, creating it on
// first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Histogram returns the histogram series for name+labels, creating it
// with the given bucket bounds on first use. Later calls return the
// existing series regardless of the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		h = &Histogram{
			name:   name,
			labels: append([]Label(nil), labels...),
			bounds: append([]float64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
		r.hists[key] = h
	}
	return h
}

// WriteText writes every series in the Prometheus-like text exposition
// format, sorted by series key. Histograms expose cumulative _bucket
// lines with an le label plus _sum and _count.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ckeys []string
	for k := range r.counters {
		ckeys = append(ckeys, k)
	}
	sort.Strings(ckeys)
	for _, k := range ckeys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, r.counters[k].Value()); err != nil {
			return err
		}
	}
	var hkeys []string
	for k := range r.hists {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	for _, k := range hkeys {
		if err := writeHistText(w, r.hists[k]); err != nil {
			return err
		}
	}
	return nil
}

func writeHistText(w io.Writer, h *Histogram) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i]
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatBound(h.bounds[i])
		}
		key := seriesKey(h.name+"_bucket", append(append([]Label(nil), h.labels...), Label{Key: "le", Value: le}))
		if _, err := fmt.Fprintf(w, "%s %d\n", key, cum); err != nil {
			return err
		}
	}
	base := seriesKey(h.name, h.labels)
	sumKey := strings.Replace(base, h.name, h.name+"_sum", 1)
	countKey := strings.Replace(base, h.name, h.name+"_count", 1)
	if _, err := fmt.Fprintf(w, "%s %s\n", sumKey, formatBound(h.sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", countKey, h.n)
	return err
}

func formatBound(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
