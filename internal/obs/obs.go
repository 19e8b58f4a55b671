// Package obs is the observability substrate for the optimizer and the
// streaming engine: per-query trace spans (exportable as plain JSON or
// Chrome trace-event format), a process-wide metrics registry with a
// deterministic text exposition, and the plan-feedback types behind
// EXPLAIN ANALYZE — the optimizer's estimate snapshots and the executed
// operators' actual row counts, compared through the Q-error metric.
//
// The package is stdlib-only and sits below both internal/engine and
// internal/optimizer: the engine's Instrumented wrapper fills OpStats,
// the optimizer records an EstimateSnapshot per plan node, and the
// renderer joins them per operator. Because the snapshot carries the
// posterior percentile T the estimate was taken at, EXPLAIN ANALYZE
// output from runs at different confidence thresholds is directly
// comparable — the repository's executable version of the paper's
// predictability experiments.
package obs

import "time"

// EstimateSnapshot is the optimizer's cardinality prediction for one
// plan node, captured at planning time so it can later be compared with
// the actual rows the operator produced. Percentile is the posterior
// percentile T the estimate was taken at (the paper's robustness knob);
// zero means a point estimate with no posterior attached.
type EstimateSnapshot struct {
	Rows       float64
	Percentile float64
	Estimator  string

	// Fingerprint is the normalized table+conjunct-shape key of the
	// estimate (see the optimizer's fingerprint grammar): queries whose
	// predicates differ only in literal values inside the same magnitude
	// bin share one fingerprint, so repeated traffic accumulates under a
	// single feedback-ledger entry. Empty for nodes the ledger does not
	// track (aggregation, sort, limit, projection).
	Fingerprint string

	// PartsScanned/PartsTotal describe partition pruning for scans of
	// partitioned tables: the optimizer planned to read PartsScanned of
	// the table's PartsTotal shards. Zero PartsTotal means the scan's
	// table is unpartitioned (or the node is not a scan).
	PartsScanned int
	PartsTotal   int

	// SegsSkipped/SegsTotal describe zone-map skipping for sequential
	// scans: of SegsTotal storage tiles in the surviving shards,
	// SegsSkipped are provably empty under the pushed predicate bounds.
	// Zero SegsTotal means the scan's filter has no pushable prefix (or
	// the node is not a sequential scan).
	SegsSkipped int
	SegsTotal   int
}

// OpStats accumulates actual execution feedback for one operator in an
// instrumented plan. Counts and durations accumulate across executions
// of the same instrumented tree, so repeated runs (benchmarks, the
// serve endpoint) fold into one record.
type OpStats struct {
	Opens   int64 // times the operator was opened
	Batches int64 // non-nil batches returned from Next
	Rows    int64 // total rows across those batches

	OpenTime  time.Duration // wall time inside Open (includes blocking builds)
	NextTime  time.Duration // wall time across all Next calls
	CloseTime time.Duration // wall time inside Close
}

// QError is the standard cardinality-estimation error metric: the
// multiplicative distance max(est/actual, actual/est). Both sides are
// clamped to at least one row first, so empty results and sub-row
// estimates yield a finite, well-ordered error instead of a division by
// zero; a perfect estimate scores exactly 1.
func QError(est, actual float64) float64 {
	if est < 1 {
		est = 1
	}
	if actual < 1 {
		actual = 1
	}
	if est > actual {
		return est / actual
	}
	return actual / est
}

// QErrorBuckets is the histogram bucketing used for per-operator-type
// Q-error distributions: tight around 1 (good estimates), geometric in
// the tail where misestimates blow up plans.
var QErrorBuckets = []float64{1, 1.25, 1.5, 2, 3, 5, 10, 30, 100}

// LatencyBuckets is the fixed bucketing for query-latency histograms on
// the serve path, in seconds. The bounds are chosen so the p50/p90/p99
// read-offs interpolate inside a bucket rather than saturating: sub-ms
// resolution at the fast end, geometric growth to 10 s.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// RatioBuckets is the fixed bucketing for fraction-valued utilization
// histograms (worker busy fractions): uniform tenths over [0, 1].
var RatioBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

// SkewBuckets is the fixed bucketing for max/mean skew ratios (per-worker
// and per-shard row imbalance): 1 is perfectly balanced, geometric tail.
var SkewBuckets = []float64{1, 1.1, 1.25, 1.5, 2, 3, 5, 10}

// DepthBuckets is the fixed bucketing for queue-depth histograms
// (exchange result-queue occupancy sampled at each coordinator receive).
var DepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32}
