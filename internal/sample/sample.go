// Package sample implements the precomputed-statistics side of the paper's
// estimation procedure: uniform random samples of base tables and join
// synopses (Acharya et al. [1]) — samples of each relation pre-joined with
// every relation reachable through its foreign keys — so that the
// selectivity of any foreign-key SPJ expression can be measured directly
// on a single sample.
package sample

import (
	"fmt"
	"slices"

	"robustqo/internal/catalog"
	"robustqo/internal/expr"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// DefaultSize is the sample size used throughout the paper's experiments.
const DefaultSize = 500

// Synopsis is a precomputed uniform random sample of a root table, each
// sample tuple widened with the matching rows of every table reachable via
// foreign keys. For a plain table sample (no expansion), the schema covers
// only the root's columns.
//
// The sample is stratified by shard: stratum p holds the tuples drawn from
// shard p alone, in a typed storage.Table over Schema, so a count runs
// the scan's own filter (storage.Filter) on it. An unpartitioned root is
// one stratum. Whole-table and pruned observations are both read off this
// one sample (CountStrata).
type Synopsis struct {
	Root   string
	Tables []string // all tables folded in, root first, expansion order
	Schema expr.RelSchema
	N      int // root table population size the sample represents: Σ N_p
	// strata[p] holds stratum p's sample tuples in draw order, and pops[p]
	// is the population they were drawn from, shard p's row count.
	strata []*storage.Table
	pops   []int
}

// Size returns the number of sample tuples n.
func (s *Synopsis) Size() int {
	n := 0
	for _, st := range s.strata {
		n += st.NumRows()
	}
	return n
}

// Strata returns the synopsis's strata in shard order, each a table of
// sample tuples over Schema. The caller must not modify them.
func (s *Synopsis) Strata() []*storage.Table { return s.strata }

// newStratum returns an empty table for sample tuples of root's synopsis
// over schema: unpartitioned, and with no primary key, since a
// with-replacement sample repeats rows.
func newStratum(root string, schema expr.RelSchema) *storage.Table {
	cols := make([]catalog.Column, len(schema.Fields))
	for i, f := range schema.Fields {
		cols[i] = catalog.Column{Name: f.Table + "." + f.Column, Type: f.Type}
	}
	// An unpartitioned schema with no key is always a valid table.
	t, _ := storage.NewTable(&catalog.TableSchema{Name: root, Columns: cols})
	return t
}

// Count evaluates a predicate over the sample and returns the number of
// matching tuples k. The fraction k/Size is the maximum-likelihood
// selectivity; the Bayesian treatment lives in package core.
func (s *Synopsis) Count(pred expr.Expr) (int, error) {
	k, _, _, err := s.CountStrata(pred, nil)
	return k, err
}

// CountStrata evaluates a predicate over the sample tuples of the listed
// strata — nil means every stratum — and returns the matches k, the
// tuples evaluated n and the population those strata represent. Because
// the strata are a proportional-allocation stratified sample, k of n is a
// valid observation of the listed shards' union: the caller's posterior
// Beta(k + a, n − k + b) needs no per-stratum combination, and dropping a
// shard drops exactly its tuples. The predicate is split once and each
// listed stratum runs the scan's filter-first window over all its tuples.
// An out-of-range or repeated index is an error.
func (s *Synopsis) CountStrata(pred expr.Expr, strata []int) (k, n, population int, err error) {
	picked := make([]bool, len(s.strata))
	if strata == nil {
		for p := range picked {
			picked[p] = true
		}
	}
	for _, p := range strata {
		if p < 0 || p >= len(picked) {
			return 0, 0, 0, fmt.Errorf("sample: synopsis %q has no stratum %d (%d strata)", s.Root, p, len(picked))
		}
		if picked[p] {
			return 0, 0, 0, fmt.Errorf("sample: synopsis %q stratum %d listed twice", s.Root, p)
		}
		picked[p] = true
	}
	f, err := storage.NewFilter(pred, s.Schema)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("sample: synopsis %q: %v", s.Root, err)
	}
	for p, st := range s.strata {
		if !picked[p] {
			continue
		}
		keep, _, err := f.Window(st, 0, st.NumRows())
		if err != nil {
			return 0, 0, 0, fmt.Errorf("sample: synopsis %q: %v", s.Root, err)
		}
		k += len(keep)
		n += st.NumRows()
		population += s.pops[p]
	}
	return k, n, population, nil
}

// BuildTableSample draws a uniform with-replacement sample of n rows from
// the table, with no foreign-key expansion.
func BuildTableSample(t *storage.Table, n int, rng *stats.RNG) (*Synopsis, error) {
	return buildTableSampleSpan(t, n, rng, 0, t.NumRows())
}

// buildTableSampleSpan samples uniformly within the global row-id span
// [lo, hi) — a single shard of a partitioned table, or the whole table.
func buildTableSampleSpan(t *storage.Table, n int, rng *stats.RNG, lo, hi int) (*Synopsis, error) {
	syn := &Synopsis{Root: t.Name(), Tables: []string{t.Name()}, Schema: expr.SchemaForTable(t.Schema())}
	return syn, syn.drawStratum(n, rng, lo, hi, func(row value.Row, rid int) (value.Row, error) {
		row = row[:len(syn.Schema.Fields)]
		t.ReadRow(rid, row)
		return row, nil
	})
}

// drawStratum appends to the synopsis one stratum of n tuples drawn
// uniformly, with replacement, from the root's global rows [lo, hi);
// widen appends the sample tuple of root row rid to row.
func (s *Synopsis) drawStratum(n int, rng *stats.RNG, lo, hi int, widen func(row value.Row, rid int) (value.Row, error)) error {
	if n <= 0 {
		return fmt.Errorf("sample: sample size %d must be positive", n)
	}
	if hi <= lo {
		return fmt.Errorf("sample: table %q is empty", s.Root)
	}
	st := newStratum(s.Root, s.Schema)
	row := make(value.Row, 0, len(s.Schema.Fields))
	for i := 0; i < n; i++ {
		rid, err := rng.Intn(hi - lo)
		if err != nil {
			return err
		}
		if row, err = widen(row[:0], lo+rid); err != nil {
			return err
		}
		if err := st.Append(row); err != nil {
			return err
		}
	}
	s.strata = append(s.strata, st)
	s.pops = append(s.pops, hi-lo)
	s.N += hi - lo
	return nil
}

// BuildSynopsis constructs the join synopsis of root: a uniform
// with-replacement sample of root, each tuple joined (via primary-key
// lookups) with the full contents of every foreign-key-reachable table.
//
// The foreign-key graph must be acyclic and free of diamonds (no table
// reachable along two paths), and every foreign key must resolve —
// referential integrity is required for the synopsis rows to be a uniform
// sample of the full join (the paper's correctness argument).
func BuildSynopsis(db *storage.Database, root string, n int, rng *stats.RNG) (*Synopsis, error) {
	rootTab, ok := db.Table(root)
	if !ok {
		return nil, fmt.Errorf("sample: unknown table %q", root)
	}
	return buildSynopsisSpan(db, root, n, rng, 0, rootTab.NumRows())
}

// expansionPlan walks the foreign keys depth-first from root, returning
// the tables in visit order and the schema of the expanded tuple. A table
// reachable along two paths (a diamond) makes the expansion ambiguous and
// is an error.
func expansionPlan(db *storage.Database, root string) ([]string, expr.RelSchema, error) {
	var tables []string
	var schema expr.RelSchema
	var plan func(name string) error
	plan = func(name string) error {
		if slices.Contains(tables, name) {
			return fmt.Errorf("sample: table %q reachable along multiple foreign-key paths from %q; join synopsis is ambiguous", name, root)
		}
		t, ok := db.Table(name)
		if !ok {
			return fmt.Errorf("sample: unknown table %q", name)
		}
		tables = append(tables, name)
		schema = schema.Concat(expr.SchemaForTable(t.Schema()))
		for _, fk := range t.Schema().Foreign {
			if err := plan(fk.RefTable); err != nil {
				return err
			}
		}
		return nil
	}
	err := plan(root)
	return tables, schema, err
}

// expand appends to row the tuple of table name's row rid followed, in
// expansion order, by the rows its foreign keys reach. expansionPlan has
// resolved every table on the way.
func expand(db *storage.Database, row value.Row, name string, rid int) (value.Row, error) {
	t, _ := db.Table(name)
	start := len(row)
	row = row[:start+len(t.Schema().Columns)]
	t.ReadRow(rid, row[start:])
	for _, fk := range t.Schema().Foreign {
		fkIdx := t.Schema().ColumnIndex(fk.Column)
		ref, _ := db.Table(fk.RefTable)
		refRID, ok := ref.LookupPK(row[start+fkIdx].I)
		if !ok {
			return nil, fmt.Errorf("sample: dangling foreign key %s.%s = %d into %q",
				name, fk.Column, row[start+fkIdx].I, fk.RefTable)
		}
		var err error
		if row, err = expand(db, row, fk.RefTable, refRID); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// buildSynopsisSpan builds a join synopsis whose root sample is drawn
// uniformly from the global row-id span [lo, hi) — one shard of a
// partitioned root, or the whole table. Foreign-key expansion always runs
// against the referenced tables in full; only the root is stratified.
func buildSynopsisSpan(db *storage.Database, root string, n int, rng *stats.RNG, lo, hi int) (*Synopsis, error) {
	tables, schema, err := expansionPlan(db, root)
	if err != nil {
		return nil, err
	}
	syn := &Synopsis{Root: root, Tables: tables, Schema: schema}
	return syn, syn.drawStratum(n, rng, lo, hi, func(row value.Row, rid int) (value.Row, error) {
		return expand(db, row, root, rid)
	})
}

// drawStrata draws the synopsis of a non-empty root table stratum by
// stratum: shard p receives n_p = max(1, ⌊n·N_p/N⌋) of the n sample tuples
// (empty shards none), drawn by draw from the shard's row span on its own
// split of rng. An unpartitioned root is one stratum of n tuples over the
// whole table, drawn by exactly the calls BuildSynopsis and
// BuildTableSample make.
func drawStrata(t *storage.Table, n int, rng *stats.RNG, draw func(np, lo, hi int, r *stats.RNG) (*Synopsis, error)) (*Synopsis, error) {
	drawn := make([]*Synopsis, t.Partitions())
	out := &Synopsis{N: t.NumRows()}
	for p := range drawn {
		lo, hi := t.PartitionSpan(p)
		if hi <= lo {
			continue
		}
		syn, err := draw(max(1, n*(hi-lo)/t.NumRows()), lo, hi, rng.Split())
		if err != nil {
			return nil, err
		}
		drawn[p] = syn
		out.Root, out.Tables, out.Schema = syn.Root, syn.Tables, syn.Schema
	}
	for _, syn := range drawn {
		if syn == nil {
			out.strata, out.pops = append(out.strata, newStratum(out.Root, out.Schema)), append(out.pops, 0)
			continue
		}
		out.strata, out.pops = append(out.strata, syn.strata...), append(out.pops, syn.pops...)
	}
	return out, nil
}

// Set holds one join synopsis per table of a database — the full
// precomputed statistics the robust estimator runs on. A partitioned
// table's synopsis is stratified by shard, so one sample serves both
// whole-table and pruned requests.
type Set struct {
	cat      *catalog.Catalog
	synopses map[string]*Synopsis
}

// BuildAll constructs an n-tuple join synopsis for every table, stratified
// by shard for partitioned tables. For tables whose foreign-key closure
// cannot be expanded (a diamond, where the join synopsis is ill-defined, or
// a dangling key), it degrades to a plain single-table sample, so that
// multi-table estimates rooted there fall back to the
// independence-combination technique while single-table estimates keep
// working — the paper's "error confined to the subexpressions for which
// adequate samples are not available" (Section 3.5).
func BuildAll(db *storage.Database, n int, rng *stats.RNG) (*Set, error) {
	if err := db.Catalog.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("sample: sample size %d must be positive", n)
	}
	s := &Set{cat: db.Catalog, synopses: make(map[string]*Synopsis)}
	for _, name := range db.Catalog.TableNames() {
		t, ok := db.Table(name)
		if !ok || t.NumRows() == 0 {
			continue
		}
		syn, err := drawStrata(t, n, rng, func(np, lo, hi int, r *stats.RNG) (*Synopsis, error) {
			return buildSynopsisSpan(db, name, np, r, lo, hi)
		})
		if err != nil {
			syn, err = drawStrata(t, n, rng, func(np, lo, hi int, r *stats.RNG) (*Synopsis, error) {
				return buildTableSampleSpan(t, np, r, lo, hi)
			})
			if err != nil {
				return nil, err
			}
		}
		s.synopses[name] = syn
	}
	return s, nil
}

// Synopsis returns the synopsis rooted at the named table.
func (s *Set) Synopsis(table string) (*Synopsis, bool) {
	syn, ok := s.synopses[table]
	return syn, ok
}

// Add registers (or replaces) a synopsis, keyed by its root.
func (s *Set) Add(syn *Synopsis) { s.synopses[syn.Root] = syn }

// Catalog returns the catalog the set was built against.
func (s *Set) Catalog() *catalog.Catalog { return s.cat }

// For returns the synopsis appropriate for an SPJ expression over the
// given tables: the synopsis rooted at the expression's root relation
// (the table whose primary key is not joined away). The synopsis must
// cover every requested table.
func (s *Set) For(tables []string) (*Synopsis, error) {
	root, err := s.cat.RootOf(tables)
	if err != nil {
		return nil, err
	}
	syn, ok := s.synopses[root]
	if !ok {
		return nil, fmt.Errorf("sample: no synopsis for root table %q", root)
	}
	covered := make(map[string]bool, len(syn.Tables))
	for _, t := range syn.Tables {
		covered[t] = true
	}
	for _, t := range tables {
		if !covered[t] {
			return nil, fmt.Errorf("sample: synopsis for %q does not cover table %q", root, t)
		}
	}
	return syn, nil
}

// ExactFraction computes the true selectivity of pred over the foreign-key
// join rooted at the root of tables, by exhaustively expanding every root
// row. It is the ground-truth oracle used by tests and by the experiment
// harness to position queries at target selectivities; real systems cannot
// afford it, which is the point of sampling.
func ExactFraction(db *storage.Database, tables []string, pred expr.Expr) (float64, error) {
	root, err := db.Catalog.RootOf(tables)
	if err != nil {
		return 0, err
	}
	rootTab, ok := db.Table(root)
	if !ok {
		return 0, fmt.Errorf("sample: unknown table %q", root)
	}
	if rootTab.NumRows() == 0 {
		return 0, fmt.Errorf("sample: table %q is empty", root)
	}
	order, schema, err := expansionPlan(db, root)
	if err != nil {
		return 0, err
	}
	for _, t := range tables {
		if !slices.Contains(order, t) {
			return 0, fmt.Errorf("sample: table %q not in the foreign-key closure of %q", t, root)
		}
	}
	f, err := storage.NewFilter(pred, schema)
	if err != nil {
		return 0, err
	}
	// Expanded rows are counted a table of exactChunk rows at a time, so
	// memory is bounded by the chunk rather than the join.
	const exactChunk = 1024
	row := make(value.Row, 0, len(schema.Fields))
	matches := 0
	for lo := 0; lo < rootTab.NumRows(); lo += exactChunk {
		hi := min(lo+exactChunk, rootTab.NumRows())
		t := newStratum(root, schema)
		for r := lo; r < hi; r++ {
			if row, err = expand(db, row[:0], root, r); err != nil {
				return 0, err
			}
			if err := t.Append(row); err != nil {
				return 0, err
			}
		}
		keep, _, err := f.Window(t, 0, t.NumRows())
		if err != nil {
			return 0, err
		}
		matches += len(keep)
	}
	return float64(matches) / float64(rootTab.NumRows()), nil
}
