package engine

import (
	"slices"
	"testing"
)

// Deterministic sweeps of the differential harness. TestEngineDifferential
// draws random points of the whole axis table; each sweep below walks one
// slice of it exhaustively, so the combinations a property is about run on
// every test run whatever the random draw. Every point goes through
// runTrial, so every sweep makes the harness's full set of checks.

// Axis indexes into radix and digits, in decode's order.
const (
	axShape = iota
	axTop
	axDOP
	axShards
	axPruned
	axClustered
	axColumns
	axLimit
)

// encode is digits' inverse.
func encode(d [len(radix)]int) (x uint64) {
	for a := len(d) - 1; a >= 0; a-- {
		x = x*uint64(radix[a]) + uint64(d[a])
	}
	return x
}

// sweep runs a trial per seed at every point where the axes in vary take
// each of their values and every other axis its digit in base; keep, when
// set, drops points.
func sweep(t *testing.T, seeds []uint64, base [len(radix)]int, keep func(point) bool, vary ...int) {
	t.Helper()
	if len(vary) == 0 {
		if axes := encode(base); keep == nil || keep(decode(axes)) {
			for _, s := range seeds {
				runTrial(t, s, axes)
			}
		}
		return
	}
	for v := 0; v < radix[vary[0]]; v++ {
		base[vary[0]] = v
		sweep(t, seeds, base, keep, vary[1:]...)
	}
}

// one is the seed of the sweeps that draw their literals once.
var one = []uint64{1}

// only keeps the points whose shape is one of names.
func only(names ...string) func(point) bool {
	return func(p point) bool { return slices.Contains(names, shapes[p.shape].name) }
}

// TestStreamMaterializedSPJProperty: every shape under every top, serial
// and unpartitioned, full drain, against the reference engine.
func TestStreamMaterializedSPJProperty(t *testing.T) {
	sweep(t, one, [len(radix)]int{}, nil, axShape, axTop)
}

// TestExchangeDifferentialDOPProperty: every shape with each scan behind an
// Exchange at DOP 1, 2 and 4, against the reference and the serial plan.
func TestExchangeDifferentialDOPProperty(t *testing.T) {
	sweep(t, one, [len(radix)]int{}, func(p point) bool { return p.dop > 0 }, axShape, axDOP)
}

// TestJoinDifferentialDOPProperty: every join shape at DOP 1, 2 and 4, with
// an Exchange over each scan.
func TestJoinDifferentialDOPProperty(t *testing.T) {
	joins := only("hashjoin", "mergejoin", "mergejoin-sorted", "inljoin", "inljoin-index", "star", "star-residual",
		"hash-chain", "hash-over-parallel")
	sweep(t, one, [len(radix)]int{}, func(p point) bool { return p.dop > 0 && joins(p) }, axShape, axDOP)
}

// TestPartitionedExchangeDifferentialProperty: every shape over 1, 2 and 4
// shards, unpruned and pruned, serial and at DOP 4, against the
// departitioned twin.
func TestPartitionedExchangeDifferentialProperty(t *testing.T) {
	sweep(t, one, [len(radix)]int{}, func(p point) bool { return p.dop == 0 || p.dop == 4 }, axShape, axShards, axPruned, axDOP)
}

// TestColumnarDifferentialProperty: the lineitem SeqScan over random and
// clustered l_ship, at every DOP, unpartitioned and over 1, 2 and 4
// shards, with the first seed that draws each filter, pushable prefix or
// not; the clustered points skip tiles, and runTrial checks their rows
// and counters against the reference, which has no zone maps, and the
// segment metering.
func TestColumnarDifferentialProperty(t *testing.T) {
	var seeds []uint64
	for f := 0; f < leafFilters; f++ {
		s := uint64(1)
		for newGen(s).filter != f {
			s++
		}
		seeds = append(seeds, s)
	}
	sweep(t, seeds, [len(radix)]int{}, only("seqscan"), axClustered, axShards, axPruned, axDOP)
}

// TestColumnPruningDifferential: every shape under every top with its
// columns pruned, on a full drain and under LIMIT BatchSize+1.
func TestColumnPruningDifferential(t *testing.T) {
	base := [len(radix)]int{axColumns: 1}
	sweep(t, one, base, func(p point) bool { return p.limit != 1 }, axShape, axTop, axLimit)
}

// TestFullDrainCountersByteIdentical: one subtest per shape, over random
// and clustered l_ship at every DOP, full drain, against the reference.
func TestFullDrainCountersByteIdentical(t *testing.T) {
	for s, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			sweep(t, one, [len(radix)]int{axShape: s}, nil, axDOP, axClustered)
		})
	}
}
