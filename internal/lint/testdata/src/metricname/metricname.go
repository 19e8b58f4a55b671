// Package metricname exercises the metricname analyzer: registry
// names are constants matching ^robustqo_[a-z0-9_]+$, one kind each,
// and histograms register with statically-known ascending buckets.
package metricname

import "obs"

const hitsName = "robustqo_cache_hits_total"

// skewBuckets stands in for the shared obs.*Buckets families: a
// package-level var is an acceptable bucket reference.
var skewBuckets = []float64{1, 1.5, 2, 4, 10}

func ok(reg *obs.Registry) {
	reg.Counter("robustqo_queries_total").Inc()
	reg.Counter(hitsName).Inc()
	reg.Histogram("robustqo_qerror", []float64{1, 2, 4}).Observe(1.5)
	// Same name, same kind, different labels: one series family.
	reg.Counter("robustqo_queries_total", obs.Label{Key: "op", Value: "scan"}).Inc()
}

// exchangeSeries registers the executor utilization family: counters
// plus histograms on shared package-level bucket vars.
func exchangeSeries(reg *obs.Registry) {
	reg.Counter("robustqo_exchange_rows_total").Add(3)
	reg.Counter("robustqo_exchange_morsels_total").Add(1)
	reg.Histogram("robustqo_exchange_queue_depth", []float64{0, 1, 2, 4, 8}).Observe(2)
	reg.Histogram("robustqo_exchange_worker_busy_ratio", []float64{0.25, 0.5, 0.75, 1}).Observe(0.9)
	reg.Histogram("robustqo_exchange_row_skew", skewBuckets).Observe(1.2)
	reg.Histogram("robustqo_exchange_shard_skew", skewBuckets).Observe(1)
}

// columnarSeries registers the encoded-scan family: one counter per
// segment disposition and one for the stale-encoding fallback to the row
// path, literal names at the call sites.
func columnarSeries(reg *obs.Registry) {
	reg.Counter("robustqo_columnar_segments_scanned_total").Inc()
	reg.Counter("robustqo_columnar_segments_skipped_total").Inc()
	reg.Counter("robustqo_columnar_stale_fallback_total").Inc()
}

// mergeJoinSeries registers the merge-join input that a plan declared
// sorted but that arrived out of order.
func mergeJoinSeries(reg *obs.Registry) {
	reg.Counter("robustqo_mergejoin_unsorted_input_total").Inc()
}

// ledgerSeries registers the cardinality feedback family.
func ledgerSeries(reg *obs.Registry) {
	reg.Counter("robustqo_ledger_appends_total").Inc()
	reg.Counter("robustqo_ledger_dropped_total").Inc()
	reg.Histogram("robustqo_ledger_qerror", skewBuckets).Observe(2)
}

// plancacheSeries registers the plan-cache outcome family: every
// serve-path Plan call lands in exactly one of the first two.
func plancacheSeries(reg *obs.Registry) {
	reg.Counter("robustqo_plancache_hits_total").Inc()
	reg.Counter("robustqo_plancache_misses_total").Inc()
	reg.Counter("robustqo_plancache_invalidations_total").Inc()
	reg.Counter("robustqo_plancache_evictions_total").Inc()
}

// admissionSeries registers the admission-gate family: counters for
// every Admit disposition plus the queue-depth/wait histograms.
func admissionSeries(reg *obs.Registry) {
	reg.Counter("robustqo_admission_admitted_total").Inc()
	reg.Counter("robustqo_admission_shed_total").Inc()
	reg.Counter("robustqo_admission_timeouts_total").Inc()
	reg.Counter("robustqo_admission_cancelled_total").Inc()
	reg.Counter("robustqo_admission_closed_rejects_total").Inc()
	reg.Counter("robustqo_admission_mem_rejects_total").Inc()
	reg.Histogram("robustqo_admission_queue_depth", []float64{0, 1, 2, 4, 8, 16, 32}).Observe(1)
	reg.Histogram("robustqo_admission_queue_wait_seconds", []float64{0.001, 0.01, 0.1, 1, 10}).Observe(0.002)
}

func badPrefix(reg *obs.Registry) {
	reg.Counter("queries_total").Inc() // want "must match"
}

func badChars(reg *obs.Registry) {
	reg.Counter("robustqo_Rows-Seen").Inc() // want "must match"
}

func dynamicName(reg *obs.Registry, name string) {
	reg.Counter(name).Inc() // want "compile-time constant"
}

func kindClash(reg *obs.Registry) {
	reg.Histogram("robustqo_latency", skewBuckets).Observe(1)
	reg.Counter("robustqo_latency").Inc() // want "both Histogram and Counter"
}

func nilBuckets(reg *obs.Registry) {
	reg.Histogram("robustqo_nil_buckets", nil).Observe(1) // want "needs explicit bucket bounds"
}

func emptyBuckets(reg *obs.Registry) {
	reg.Histogram("robustqo_empty_buckets", []float64{}).Observe(1) // want "must not be empty"
}

func descendingBuckets(reg *obs.Registry) {
	reg.Histogram("robustqo_descending_buckets", []float64{4, 2, 1}).Observe(1) // want "strictly ascending"
}

func duplicateBuckets(reg *obs.Registry) {
	reg.Histogram("robustqo_duplicate_buckets", []float64{1, 2, 2}).Observe(1) // want "strictly ascending"
}

func dynamicBuckets(reg *obs.Registry, bounds []float64) {
	reg.Histogram("robustqo_local_buckets", bounds).Observe(1) // want "package-level bucket var"
}

func computedBuckets(reg *obs.Registry) {
	reg.Histogram("robustqo_computed_buckets", makeBuckets()).Observe(1) // want "package-level bucket var"
}

func makeBuckets() []float64 { return []float64{1, 2} }

func suppressed(reg *obs.Registry, name string) {
	//qolint:allow-metricname
	reg.Counter(name).Inc()
}
