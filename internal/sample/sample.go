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
// only the root's columns. The sample is stored column-major, one vector
// per schema field, so it is evaluated by the same batch kernels that
// filter the table.
type Synopsis struct {
	Root   string
	Tables []string // all tables folded in, root first, expansion order
	Schema expr.RelSchema
	Cols   [][]value.Value // Cols[c][i] is field c of sample tuple i
	N      int             // root table population size the sample represents
}

// Size returns the number of sample tuples n.
func (s *Synopsis) Size() int {
	if len(s.Cols) == 0 {
		return 0
	}
	return len(s.Cols[0])
}

// Count evaluates a predicate over the sample and returns the number of
// matching tuples k. The fraction k/Size is the maximum-likelihood
// selectivity; the Bayesian treatment lives in package core.
func (s *Synopsis) Count(pred expr.Expr) (int, error) {
	bound, err := expr.Bind(pred, s.Schema)
	if err != nil {
		return 0, fmt.Errorf("sample: synopsis %q: %v", s.Root, err)
	}
	sel := make([]int, s.Size())
	for i := range sel {
		sel[i] = i
	}
	keep, err := bound.EvalBatch(s.Cols, sel)
	if err != nil {
		return 0, fmt.Errorf("sample: synopsis %q: %v", s.Root, err)
	}
	return len(keep), nil
}

// newColumns returns width empty column vectors with room for n values.
func newColumns(width, n int) [][]value.Value {
	cols := make([][]value.Value, width)
	for c := range cols {
		cols[c] = make([]value.Value, 0, n)
	}
	return cols
}

// appendRow appends one tuple to column-major storage.
func appendRow(cols [][]value.Value, row value.Row) {
	for c, v := range row {
		cols[c] = append(cols[c], v)
	}
}

// BuildTableSample draws a uniform with-replacement sample of n rows from
// the table, with no foreign-key expansion.
func BuildTableSample(t *storage.Table, n int, rng *stats.RNG) (*Synopsis, error) {
	return buildTableSampleSpan(t, n, rng, 0, t.NumRows())
}

// buildTableSampleSpan samples uniformly within the global row-id span
// [lo, hi) — a single shard of a partitioned table, or the whole table.
func buildTableSampleSpan(t *storage.Table, n int, rng *stats.RNG, lo, hi int) (*Synopsis, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sample: sample size %d must be positive", n)
	}
	if hi <= lo {
		return nil, fmt.Errorf("sample: table %q is empty", t.Name())
	}
	schema := expr.SchemaForTable(t.Schema())
	cols := newColumns(len(schema.Fields), n)
	for i := 0; i < n; i++ {
		rid, err := rng.Intn(hi - lo)
		if err != nil {
			return nil, err
		}
		for c := range cols {
			cols[c] = append(cols[c], t.Value(lo+rid, c))
		}
	}
	return &Synopsis{
		Root:   t.Name(),
		Tables: []string{t.Name()},
		Schema: schema,
		Cols:   cols,
		N:      hi - lo,
	}, nil
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

// buildSynopsisSpan builds a join synopsis whose root sample is drawn
// uniformly from the global row-id span [lo, hi) — one shard of a
// partitioned root, or the whole table. Foreign-key expansion always runs
// against the referenced tables in full; only the root is stratified.
func buildSynopsisSpan(db *storage.Database, root string, n int, rng *stats.RNG, lo, hi int) (*Synopsis, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sample: sample size %d must be positive", n)
	}
	if _, ok := db.Table(root); !ok {
		return nil, fmt.Errorf("sample: unknown table %q", root)
	}
	if hi <= lo {
		return nil, fmt.Errorf("sample: table %q is empty", root)
	}
	tables, schema, err := expansionPlan(db, root)
	if err != nil {
		return nil, err
	}
	row := make(value.Row, 0, len(schema.Fields))
	var expand func(name string, rid int) error
	expand = func(name string, rid int) error {
		t, ok := db.Table(name)
		if !ok {
			return fmt.Errorf("sample: unknown table %q", name)
		}
		base := t.Row(rid)
		row = append(row, base...)
		for _, fk := range t.Schema().Foreign {
			fkIdx := t.Schema().ColumnIndex(fk.Column)
			ref, ok := db.Table(fk.RefTable)
			if !ok {
				return fmt.Errorf("sample: unknown table %q", fk.RefTable)
			}
			refRID, ok := ref.LookupPK(base[fkIdx].I)
			if !ok {
				return fmt.Errorf("sample: dangling foreign key %s.%s = %d into %q",
					name, fk.Column, base[fkIdx].I, fk.RefTable)
			}
			if err := expand(fk.RefTable, refRID); err != nil {
				return err
			}
		}
		return nil
	}
	cols := newColumns(len(schema.Fields), n)
	for i := 0; i < n; i++ {
		rid, err := rng.Intn(hi - lo)
		if err != nil {
			return nil, err
		}
		row = row[:0]
		if err := expand(root, lo+rid); err != nil {
			return nil, err
		}
		appendRow(cols, row)
	}
	return &Synopsis{
		Root:   root,
		Tables: tables,
		Schema: schema,
		Cols:   cols,
		N:      hi - lo,
	}, nil
}

// BuildPartitionSynopses builds one FK-expanded synopsis per shard of a
// partitioned table — stratified sampling with proportional allocation:
// shard p receives n*N_p/N of the n sample tuples (at least 1 when the
// shard is non-empty), so summing per-shard match counts behaves like one
// uniform sample of the union and the per-shard Beta pseudo-counts can be
// added directly (the posterior combination rule in package core). Empty
// shards get a nil entry. Roots whose FK closure contains a diamond fall
// back to plain per-shard table samples, mirroring BuildAll.
func BuildPartitionSynopses(db *storage.Database, root string, n int, rng *stats.RNG) ([]*Synopsis, error) {
	t, ok := db.Table(root)
	if !ok {
		return nil, fmt.Errorf("sample: unknown table %q", root)
	}
	if t.Partitions() < 2 {
		return nil, fmt.Errorf("sample: table %q is not partitioned", root)
	}
	if n <= 0 {
		return nil, fmt.Errorf("sample: sample size %d must be positive", n)
	}
	total := t.NumRows()
	if total == 0 {
		return nil, fmt.Errorf("sample: table %q is empty", root)
	}
	syns := make([]*Synopsis, t.Partitions())
	for p := range syns {
		lo, hi := t.PartitionSpan(p)
		if hi <= lo {
			continue
		}
		np := n * (hi - lo) / total
		if np < 1 {
			np = 1
		}
		syn, err := buildSynopsisSpan(db, root, np, rng.Split(), lo, hi)
		if err != nil {
			syn, err = buildTableSampleSpan(t, np, rng.Split(), lo, hi)
			if err != nil {
				return nil, err
			}
		}
		syns[p] = syn
	}
	return syns, nil
}

// Set holds one join synopsis per table of a database — the full
// precomputed statistics the robust estimator runs on. Partitioned tables
// additionally carry one synopsis per shard so the estimator can combine
// per-shard posteriors over whichever shards survive pruning.
type Set struct {
	cat      *catalog.Catalog
	synopses map[string]*Synopsis
	// partitioned maps a partitioned root table to its per-shard
	// synopses, indexed by shard; empty shards hold nil.
	partitioned map[string][]*Synopsis
}

// BuildAll constructs an n-tuple join synopsis for every table. For
// tables whose foreign-key closure contains a diamond (where the join
// synopsis is ill-defined), it degrades to a plain single-table sample,
// so that multi-table estimates rooted there fall back to the
// independence-combination technique while single-table estimates keep
// working — the paper's "error confined to the subexpressions for which
// adequate samples are not available" (Section 3.5).
func BuildAll(db *storage.Database, n int, rng *stats.RNG) (*Set, error) {
	if err := db.Catalog.Validate(); err != nil {
		return nil, err
	}
	s := &Set{
		cat:         db.Catalog,
		synopses:    make(map[string]*Synopsis),
		partitioned: make(map[string][]*Synopsis),
	}
	for _, name := range db.Catalog.TableNames() {
		t, ok := db.Table(name)
		if !ok || t.NumRows() == 0 {
			continue
		}
		syn, err := BuildSynopsis(db, name, n, rng.Split())
		if err != nil {
			syn, err = BuildTableSample(t, n, rng.Split())
			if err != nil {
				return nil, err
			}
		}
		s.synopses[name] = syn
		if t.Partitions() > 1 {
			shards, err := BuildPartitionSynopses(db, name, n, rng.Split())
			if err != nil {
				return nil, err
			}
			s.partitioned[name] = shards
		}
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

// AddPartitioned registers (or replaces) the per-shard synopses of a
// partitioned root table, indexed by shard (nil entries for empty shards).
func (s *Set) AddPartitioned(root string, shards []*Synopsis) {
	if s.partitioned == nil {
		s.partitioned = make(map[string][]*Synopsis)
	}
	s.partitioned[root] = shards
}

// Partitioned returns the per-shard synopses of a partitioned root table.
func (s *Set) Partitioned(root string) ([]*Synopsis, bool) {
	shards, ok := s.partitioned[root]
	return shards, ok
}

// ForShards returns the per-shard synopses appropriate for an SPJ
// expression over the given tables, rooted (like For) at the table whose
// primary key is not joined away. ok is false when the root is not
// partitioned or a shard synopsis does not cover every requested table —
// callers then fall back to the global synopsis.
func (s *Set) ForShards(tables []string) ([]*Synopsis, bool) {
	root, err := s.cat.RootOf(tables)
	if err != nil {
		return nil, false
	}
	shards, ok := s.partitioned[root]
	if !ok {
		return nil, false
	}
	for _, syn := range shards {
		if syn == nil {
			continue
		}
		covered := make(map[string]bool, len(syn.Tables))
		for _, t := range syn.Tables {
			covered[t] = true
		}
		for _, t := range tables {
			if !covered[t] {
				return nil, false
			}
		}
	}
	return shards, true
}

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
	bound, err := expr.Bind(pred, schema)
	if err != nil {
		return 0, err
	}
	row := make(value.Row, 0, len(schema.Fields))
	var expand func(name string, rid int) error
	expand = func(name string, rid int) error {
		t, ok := db.Table(name)
		if !ok {
			return fmt.Errorf("sample: unknown table %q", name)
		}
		start := len(row)
		row = row[:start+len(t.Schema().Columns)]
		t.ReadRow(rid, row[start:])
		for _, fk := range t.Schema().Foreign {
			fkIdx := t.Schema().ColumnIndex(fk.Column)
			ref, ok := db.Table(fk.RefTable)
			if !ok {
				return fmt.Errorf("sample: unknown table %q", fk.RefTable)
			}
			refRID, ok := ref.LookupPK(row[start+fkIdx].I)
			if !ok {
				return fmt.Errorf("sample: dangling foreign key %s.%s", name, fk.Column)
			}
			if err := expand(fk.RefTable, refRID); err != nil {
				return err
			}
		}
		return nil
	}
	// Expanded rows are evaluated a column chunk at a time, so memory is
	// bounded by the chunk rather than the table.
	const exactChunk = 1024
	full := make(value.Row, len(schema.Fields))
	cols := newColumns(len(full), exactChunk)
	sel := make([]int, 0, exactChunk)
	matches := 0
	for lo := 0; lo < rootTab.NumRows(); lo += exactChunk {
		hi := min(lo+exactChunk, rootTab.NumRows())
		for c := range cols {
			cols[c] = cols[c][:0]
		}
		sel = sel[:0]
		for r := lo; r < hi; r++ {
			row = full[:0]
			if err := expand(root, r); err != nil {
				return 0, err
			}
			appendRow(cols, full)
			sel = append(sel, r-lo)
		}
		keep, err := bound.EvalBatch(cols, sel)
		if err != nil {
			return 0, err
		}
		matches += len(keep)
	}
	return float64(matches) / float64(rootTab.NumRows()), nil
}
