package main

import (
	"fmt"
	"math"
	"sort"

	"robustqo/internal/catalog"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// The reference evaluator computes the expected answer of a querySpec by
// brute force: it walks every row of the root table, follows the foreign
// keys to the joined tables, tests each conjunct, and then groups,
// orders and limits. It shares no code with the parser, optimizer or
// engine; it only copies the generated table cells once.

type refTable struct {
	rows   int
	ints   map[int][]int64   // by index into columns
	floats map[int][]float64 // by index into columns
	// parent maps each row to the row of the tuple it references in the
	// named table, or -1 when the key dangles.
	parent map[string][]int32
}

type refDB map[string]*refTable

// newRefDB copies the generated tables cell by cell and resolves every
// foreign key once.
func newRefDB(db *storage.Database) (refDB, error) {
	ref := refDB{}
	for ci, c := range columns {
		t, ok := db.Table(c.table)
		if !ok {
			return nil, fmt.Errorf("refeval: table %q missing", c.table)
		}
		rt := ref[c.table]
		if rt == nil {
			rt = &refTable{rows: t.NumRows(), ints: map[int][]int64{}, floats: map[int][]float64{}, parent: map[string][]int32{}}
			ref[c.table] = rt
		}
		pos := t.Schema().ColumnIndex(c.name)
		if pos < 0 {
			return nil, fmt.Errorf("refeval: column %s.%s missing", c.table, c.name)
		}
		row := make(value.Row, len(t.Schema().Columns))
		if c.kind == 'f' {
			vals := make([]float64, rt.rows)
			for r := range vals {
				t.ReadRow(r, row)
				vals[r] = row[pos].F
			}
			rt.floats[ci] = vals
			continue
		}
		vals := make([]int64, rt.rows)
		for r := range vals {
			t.ReadRow(r, row)
			vals[r] = row[pos].I
		}
		rt.ints[ci] = vals
	}
	for ci, c := range columns {
		if c.fk == "" {
			continue
		}
		pk := map[int64]int32{}
		for pi, pc := range columns {
			if pc.table == c.fk { // the first column of a table is its key
				for r, k := range ref[c.fk].ints[pi] {
					pk[k] = int32(r)
				}
				break
			}
		}
		rows := make([]int32, ref[c.table].rows)
		for r, k := range ref[c.table].ints[ci] {
			if pr, ok := pk[k]; ok {
				rows[r] = pr
			} else {
				rows[r] = -1
			}
		}
		ref[c.table].parent[c.fk] = rows
	}
	return ref, nil
}

// reader returns a function reading column c, as a float when the
// column is one and as an int otherwise, for a row number of root.
func (db refDB) reader(root string, c int) (func(r int) int64, func(r int) float64) {
	def := columns[c]
	t := db[def.table]
	at := func(r int) int { return r }
	if def.table != root {
		parent := db[root].parent[def.table]
		at = func(r int) int { return int(parent[r]) }
	}
	if def.kind == 'f' {
		vals := t.floats[c]
		return nil, func(r int) float64 { return vals[at(r)] }
	}
	vals := t.ints[c]
	return func(r int) int64 { return vals[at(r)] }, nil
}

// test compiles one conjunct to a row test.
func (db refDB) test(root string, c cond) func(r int) bool {
	geti, getf := db.reader(root, c.col)
	var cmp func(r int, l lit) int
	if getf != nil || c.lo.kind == 'f' {
		cmp = func(r int, l lit) int {
			var a float64
			if getf != nil {
				a = getf(r)
			} else {
				a = float64(geti(r))
			}
			b := l.f
			if l.kind != 'f' {
				b = float64(l.i)
			}
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			}
			return 0
		}
	} else {
		cmp = func(r int, l lit) int {
			switch a := geti(r); {
			case a < l.i:
				return -1
			case a > l.i:
				return 1
			}
			return 0
		}
	}
	switch c.op {
	case "<":
		return func(r int) bool { return cmp(r, c.lo) < 0 }
	case "<=":
		return func(r int) bool { return cmp(r, c.lo) <= 0 }
	case ">":
		return func(r int) bool { return cmp(r, c.lo) > 0 }
	case ">=":
		return func(r int) bool { return cmp(r, c.lo) >= 0 }
	case "=":
		return func(r int) bool { return cmp(r, c.lo) == 0 }
	case "<>":
		return func(r int) bool { return cmp(r, c.lo) != 0 }
	default: // between
		return func(r int) bool { return cmp(r, c.lo) >= 0 && cmp(r, c.hi) <= 0 }
	}
}

// cell compiles a column to a function returning its value.
func (db refDB) cell(root string, c int) func(r int) value.Value {
	geti, getf := db.reader(root, c)
	switch columns[c].kind {
	case 'f':
		return func(r int) value.Value { return value.Float(getf(r)) }
	case 'd':
		return func(r int) value.Value { return value.Date(geti(r)) }
	default:
		return func(r int) value.Value { return value.Int(geti(r)) }
	}
}

// rootOf names the table every other query table is referenced from.
func rootOf(tables []string) string {
	for _, t := range tables {
		for _, c := range columns {
			if c.table == t && c.fk != "" {
				return t
			}
		}
	}
	return tables[0]
}

// matches returns the root rows that survive the join and every
// conjunct, in table order, stopping after max rows when max > 0.
func (db refDB) matches(q querySpec, max int) ([]int, string, error) {
	root := rootOf(q.tables)
	var joined [][]int32
	for _, t := range q.tables {
		if t == root {
			continue
		}
		parent, ok := db[root].parent[t]
		if !ok {
			return nil, "", fmt.Errorf("refeval: %s does not reference %s", root, t)
		}
		joined = append(joined, parent)
	}
	tests := make([]func(int) bool, len(q.conds))
	for i, c := range q.conds {
		tests[i] = db.test(root, c)
	}
	var out []int
rows:
	for r := 0; r < db[root].rows; r++ {
		for _, parent := range joined {
			if parent[r] < 0 {
				continue rows // dangling key: the FK join drops the row
			}
		}
		for _, ok := range tests {
			if !ok(r) {
				continue rows
			}
		}
		out = append(out, r)
		if len(out) == max {
			break
		}
	}
	return out, root, nil
}

// count returns the number of rows of the answer without building it;
// the serve workloads compare only this.
func (db refDB) count(q querySpec) (int, error) {
	if len(q.groupBy) > 0 {
		rows, err := db.eval(q)
		return len(rows), err
	}
	if len(q.aggs) > 0 {
		return 1, nil
	}
	rows, _, err := db.matches(q, q.limit)
	return len(rows), err
}

// eval returns the expected rows: group columns then aggregates when
// the query aggregates, the projection otherwise.
func (db refDB) eval(q querySpec) ([]value.Row, error) {
	aggregating := len(q.aggs) > 0 || len(q.groupBy) > 0
	max := 0
	if !aggregating && q.orderBy < 0 {
		max = q.limit
	}
	rows, root, err := db.matches(q, max)
	if err != nil {
		return nil, err
	}
	if !aggregating {
		if q.orderBy >= 0 {
			key := db.cell(root, q.orderBy)
			sort.SliceStable(rows, func(a, b int) bool {
				if q.desc {
					return less(key(rows[b]), key(rows[a]))
				}
				return less(key(rows[a]), key(rows[b]))
			})
		}
		if q.limit > 0 && len(rows) > q.limit {
			rows = rows[:q.limit]
		}
		cells := make([]func(int) value.Value, len(q.project))
		for i, p := range q.project {
			cells[i] = db.cell(root, p)
		}
		out := make([]value.Row, len(rows))
		for i, r := range rows {
			out[i] = make(value.Row, len(cells))
			for j, cell := range cells {
				out[i][j] = cell(r)
			}
		}
		return out, nil
	}

	type group struct {
		key        value.Row
		n          int64
		sums       []float64
		mins, maxs []value.Value
	}
	newGroup := func(key value.Row) *group {
		return &group{key: key, sums: make([]float64, len(q.aggs)),
			mins: make([]value.Value, len(q.aggs)), maxs: make([]value.Value, len(q.aggs))}
	}
	keys := make([]func(int) value.Value, len(q.groupBy))
	for i, g := range q.groupBy {
		keys[i] = db.cell(root, g)
	}
	args := make([]func(int) value.Value, len(q.aggs))
	for i, a := range q.aggs {
		if a.col >= 0 {
			args[i] = db.cell(root, a.col)
		}
	}
	groups := map[string]*group{}
	var order []*group
	if len(q.groupBy) == 0 {
		// A grand total over no rows is still one row.
		order = append(order, newGroup(nil))
		groups[""] = order[0]
	}
	for _, r := range rows {
		ks := ""
		if len(keys) > 0 {
			key := make(value.Row, len(keys))
			for i, k := range keys {
				key[i] = k(r)
			}
			ks = fmt.Sprint(key)
			if groups[ks] == nil {
				groups[ks] = newGroup(key)
				order = append(order, groups[ks])
			}
		}
		g := groups[ks]
		g.n++
		for i, arg := range args {
			if arg == nil {
				continue
			}
			v := arg(r)
			if isFloat(v) {
				g.sums[i] += v.F
			} else {
				g.sums[i] += float64(v.I)
			}
			if g.n == 1 || less(v, g.mins[i]) {
				g.mins[i] = v
			}
			if g.n == 1 || less(g.maxs[i], v) {
				g.maxs[i] = v
			}
		}
	}
	var out []value.Row
	for _, g := range order {
		row := append(value.Row{}, g.key...)
		for i, a := range q.aggs {
			switch a.fn {
			case "COUNT":
				row = append(row, value.Int(g.n))
			case "SUM":
				row = append(row, value.Float(g.sums[i]))
			case "MIN":
				row = append(row, g.mins[i])
			case "MAX":
				row = append(row, g.maxs[i])
			default:
				return nil, fmt.Errorf("refeval: unsupported aggregate %s", a.fn)
			}
		}
		out = append(out, row)
	}
	return out, nil
}

func isFloat(v value.Value) bool { return v.Kind == catalog.Float }

func less(a, b value.Value) bool {
	if isFloat(a) {
		return a.F < b.F
	}
	return a.I < b.I
}

// sameRows compares an answer with the expected rows. Numbers match
// within a relative 1e-9 (parallel scans add in another order, and the
// engine may sum an int column as an int); when ordered is false both
// sides are compared as multisets.
func sameRows(got, want []value.Row, ordered bool) bool {
	if len(got) != len(want) {
		return false
	}
	if !ordered {
		got, want = sortedCopy(got), sortedCopy(want)
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			x, y := got[i][j].F, want[i][j].F
			if !isFloat(got[i][j]) {
				x = float64(got[i][j].I)
			}
			if !isFloat(want[i][j]) {
				y = float64(want[i][j].I)
			}
			if math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
				return false
			}
		}
	}
	return true
}

// sortedCopy orders rows by their integer cells, which are the group
// keys of every unordered result the workloads produce.
func sortedCopy(rows []value.Row) []value.Row {
	out := append([]value.Row(nil), rows...)
	sort.SliceStable(out, func(a, b int) bool {
		for j := range out[a] {
			if isFloat(out[a][j]) || out[a][j].I == out[b][j].I {
				continue
			}
			return out[a][j].I < out[b][j].I
		}
		return false
	})
	return out
}
