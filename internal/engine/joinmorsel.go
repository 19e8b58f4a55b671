package engine

// HashJoin as a morsel source: how an entire scan→hashjoin pipeline runs
// under one Exchange instead of parallelizing only the leaf.
//
// The split follows the blocking/streaming line hashJoinOp draws.
// openBuild — schema resolution, draining the build side, building the
// hash table — happens once on the coordinator in openMorsels, charged to
// the shared counters, and completes before any window runs. The
// streaming phase becomes window work: each probe window's survivors are
// joined by probeInto against the finished table, which is read-only by
// then and safe to share across workers.
//
// Counter exactness holds because the join's charges are per probe row
// and per match, on top of the probe's own per-window charges. Row order
// is preserved because windows are emitted in order and, within a window,
// probe rows are joined in probe order with each key's build rows in
// build-input order — the serial nesting exactly.

import (
	"fmt"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
)

// openMorsels implements morselSource.
func (j *HashJoin) openMorsels(ctx *Context, counters *cost.Counters) (morselRunner, error) {
	probeSrc, probeStats, ok := morselSourceOf(j.Probe)
	if !ok {
		return nil, fmt.Errorf("engine: HashJoin probe %s is not morselizable", j.Probe.Describe())
	}
	built, err := j.openBuild(ctx, counters)
	if err != nil {
		return nil, err
	}
	probe, err := openMorselSource(ctx, probeSrc, probeStats, counters)
	if err != nil {
		return nil, err
	}
	return &hashJoinMorselRunner{built: built, probe: probe, probeStats: probeStats}, nil
}

// hashJoinMorselRunner joins each probe window against the shared,
// read-only build table; its morsels are the probe side's.
type hashJoinMorselRunner struct {
	built *builtJoin
	probe morselRunner
	// probeStats is the probe node's Instrumented stats (nil when bare);
	// each worker's probe side tallies into it.
	probeStats *obs.OpStats
}

func (r *hashJoinMorselRunner) schema() expr.RelSchema        { return r.built.schema }
func (r *hashJoinMorselRunner) numMorsels() int               { return r.probe.numMorsels() }
func (r *hashJoinMorselRunner) morselSpan(m int) (lo, hi int) { return r.probe.morselSpan(m) }

func (r *hashJoinMorselRunner) newWorker() (morselWorker, error) {
	pw, err := newMorselWorker(r.probe, r.probeStats)
	if err != nil {
		return nil, err
	}
	return &hashJoinMorselWorker{built: r.built, probe: pw, pb: getBatch(r.probe.schema())}, nil
}

// hashJoinMorselWorker owns pb, the scratch batch its probe side fills
// one window at a time, and the scratch of its probes.
type hashJoinMorselWorker struct {
	built *builtJoin
	probe morselWorker
	pb    *Batch
	pairs joinPairs
}

// window runs the probe side's window into pb and appends its matches to
// out.
//
//qo:hotpath
func (w *hashJoinMorselWorker) window(out *Batch, lo, hi int, counters *cost.Counters) error {
	w.pb.Reset()
	if err := w.probe.window(w.pb, lo, hi, counters); err != nil {
		return err
	}
	w.built.probeInto(out, w.pb, &w.pairs, counters)
	return nil
}

func (w *hashJoinMorselWorker) release() {
	w.probe.release()
	putBatch(w.pb)
	w.pb = nil
}
