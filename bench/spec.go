package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"robustqo/internal/value"
)

// The benchmark describes every query in its own terms (querySpec) and
// renders SQL text from that. The reference evaluator answers the spec
// directly, so neither the SQL parser nor the expression binder of the
// system under test takes part in producing the expected answer.

// colDef is one column of the TPC-H-like schema tpch.Generate builds.
// kind is 'i' (int), 'd' (date, days since 1970-01-01) or 'f' (float).
type colDef struct {
	table, name string
	kind        byte
	// fk names the table this column references ("" for none); the
	// referenced table's primary key is its first column.
	fk string
}

var columns = []colDef{
	{table: "part", name: "p_partkey", kind: 'i'},
	{table: "part", name: "p_attr1", kind: 'i'},
	{table: "part", name: "p_attr2", kind: 'i'},
	{table: "part", name: "p_size", kind: 'i'},
	{table: "orders", name: "o_orderkey", kind: 'i'},
	{table: "orders", name: "o_orderdate", kind: 'd'},
	{table: "orders", name: "o_totalprice", kind: 'f'},
	{table: "lineitem", name: "l_id", kind: 'i'},
	{table: "lineitem", name: "l_orderkey", kind: 'i', fk: "orders"},
	{table: "lineitem", name: "l_partkey", kind: 'i', fk: "part"},
	{table: "lineitem", name: "l_shipdate", kind: 'd'},
	{table: "lineitem", name: "l_receiptdate", kind: 'd'},
	{table: "lineitem", name: "l_quantity", kind: 'i'},
	{table: "lineitem", name: "l_extendedprice", kind: 'f'},
}

// col returns the index of a column by name; the names are unique
// across the three tables.
func col(name string) int {
	for i, c := range columns {
		if c.name == name {
			return i
		}
	}
	panic("bench: unknown column " + name) // a typo in a workload definition
}

// lit is a literal of a column's kind.
type lit struct {
	kind byte
	i    int64
	f    float64
}

func intLit(v int64) lit     { return lit{kind: 'i', i: v} }
func dateLit(days int64) lit { return lit{kind: 'd', i: days} }
func floatLit(v float64) lit { return lit{kind: 'f', f: v} }

// days converts a civil date to the day number the generator stores.
func days(y int, m time.Month, d int) int64 {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC).Unix() / 86400
}

// sql renders the literal as it appears in a statement.
func (l lit) sql() string {
	switch l.kind {
	case 'd':
		return "DATE '" + time.Unix(l.i*86400, 0).UTC().Format("2006-01-02") + "'"
	case 'f':
		s := strconv.FormatFloat(l.f, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	default:
		return strconv.FormatInt(l.i, 10)
	}
}

// arg renders the literal as an /exec argument (dates as day numbers).
func (l lit) arg() string {
	if l.kind == 'f' {
		return strconv.FormatFloat(l.f, 'f', -1, 64)
	}
	return strconv.FormatInt(l.i, 10)
}

// cond is one conjunct of a WHERE clause: column op literal, or
// column BETWEEN lo AND hi when op is "between".
type cond struct {
	col    int
	op     string // < <= > >= = <> between
	lo, hi lit
}

type aggSpec struct {
	fn  string // COUNT SUM MIN MAX
	col int    // -1 for COUNT(*)
	as  string
}

type querySpec struct {
	tables  []string
	conds   []cond
	aggs    []aggSpec
	groupBy []int
	orderBy int // column index, -1 for none
	desc    bool
	limit   int // 0 for none
	project []int
}

// sql renders the statement. Column names are unique across tables, so
// they are left unqualified.
func (q querySpec) sql() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	var items []string
	for _, g := range q.groupBy {
		items = append(items, columns[g].name)
	}
	for _, a := range q.aggs {
		arg := "*"
		if a.col >= 0 {
			arg = columns[a.col].name
		}
		items = append(items, fmt.Sprintf("%s(%s) AS %s", a.fn, arg, a.as))
	}
	if len(q.aggs) == 0 && len(q.groupBy) == 0 {
		for _, p := range q.project {
			items = append(items, columns[p].name)
		}
	}
	b.WriteString(strings.Join(items, ", "))
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(q.tables, ", "))
	for i, c := range q.conds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(columns[c.col].name)
		if c.op == "between" {
			b.WriteString(" BETWEEN " + c.lo.sql() + " AND " + c.hi.sql())
		} else {
			b.WriteString(" " + c.op + " " + c.lo.sql())
		}
	}
	if len(q.groupBy) > 0 {
		names := make([]string, len(q.groupBy))
		for i, g := range q.groupBy {
			names[i] = columns[g].name
		}
		b.WriteString(" GROUP BY " + strings.Join(names, ", "))
	}
	if q.orderBy >= 0 {
		b.WriteString(" ORDER BY " + columns[q.orderBy].name)
		if q.desc {
			b.WriteString(" DESC")
		}
	}
	if q.limit > 0 {
		b.WriteString(" LIMIT " + strconv.Itoa(q.limit))
	}
	return b.String()
}

// args renders the literals in the order a prepared statement's slots
// take them: conjunct by conjunct, BETWEEN bounds low then high.
func (q querySpec) args() string {
	var out []string
	for _, c := range q.conds {
		out = append(out, c.lo.arg())
		if c.op == "between" {
			out = append(out, c.hi.arg())
		}
	}
	return strings.Join(out, ",")
}

// params returns the literals as the values handleExec parses the
// arguments into, in the same slot order as args.
func (q querySpec) params() []value.Value {
	var out []value.Value
	add := func(l lit) {
		switch l.kind {
		case 'f':
			out = append(out, value.Float(l.f))
		case 'd':
			out = append(out, value.Date(l.i))
		default:
			out = append(out, value.Int(l.i))
		}
	}
	for _, c := range q.conds {
		add(c.lo)
		if c.op == "between" {
			add(c.hi)
		}
	}
	return out
}

// shape is the statement with its literals blanked: two specs with the
// same shape differ only in binding values. It is the benchmark's own
// notion of a template; a unit test checks it against the plan cache's.
func (q querySpec) shape() string {
	blank := q
	blank.conds = make([]cond, len(q.conds))
	for i, c := range q.conds {
		c.lo = lit{kind: c.lo.kind}
		c.hi = lit{kind: c.hi.kind}
		blank.conds[i] = c
	}
	return blank.sql()
}
