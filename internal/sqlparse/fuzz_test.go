package sqlparse

import (
	"slices"
	"testing"

	"robustqo/internal/expr"
)

// fuzzSeeds covers every statement shape the unit tests exercise plus the
// syntax corners (quoting, nesting, case, aggregates) a mutator should
// start from.
var fuzzSeeds = []string{
	"SELECT * FROM lineitem",
	"SELECT lineitem.l_id, l_price FROM lineitem WHERE l_price > 10 ORDER BY l_price ASC",
	"SELECT l_partkey FROM lineitem GROUP BY l_partkey",
	"SELECT SUM(l_price * l_quantity) FROM lineitem",
	"select count(*) from lineitem where l_price > 1 group by l_partkey order by l_partkey limit 3",
	"SELECT * FROM notes WHERE body CONTAINS 'select from where group by' AND (qty + 1) > 2",
	"SELECT AVG(l_price), MIN(orders.o_total) FROM lineitem, orders",
	"SELECT * FROM t WHERE d BETWEEN DATE '1997-07-01' AND DATE '1997-09-30'",
	"SELECT * FROM t WHERE a IN (1, -2.5, 3) OR NOT s LIKE '%x%'",
	"SELECT * FROM t WHERE s = 'it''s'",
	"SELECT COUNT(*) AS n, a FROM t GROUP BY a ORDER BY a DESC LIMIT 10",
	"SELECT * FROM t WHERE ((a = 1))",
	"not sql",
	"SELECT",
	"SELECT * FROM",
	"SELECT * FROM t WHERE 'unterminated",
	"SELECT * FROM t LIMIT 99999999999999999999",
}

// FuzzParse asserts Parse never panics, and that its result contract holds:
// exactly one of (query, error) is non-nil, and a parsed query names at
// least one table and no empty table, projection, grouping or sort name.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, s := range emptyItemShapes {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(sql)
		if err != nil {
			if q != nil {
				t.Errorf("Parse(%q) returned both a query and an error", sql)
			}
			return
		}
		if q == nil {
			t.Fatalf("Parse(%q) returned nil query without error", sql)
		}
		if len(q.Tables) == 0 {
			t.Errorf("Parse(%q) accepted a query with no tables", sql)
		}
		if slices.Contains(q.Tables, "") {
			t.Errorf("Parse(%q) accepted an empty table name: %q", sql, q.Tables)
		}
		var refs []expr.ColumnRef
		refs = append(refs, q.Project...)
		refs = append(refs, q.GroupBy...)
		for _, k := range q.OrderBy {
			refs = append(refs, k.Col)
		}
		for _, r := range refs {
			if r.Column == "" {
				t.Errorf("Parse(%q) accepted an empty column name in %+v", sql, q)
			}
		}
	})
}

// TestParseCrasherRegressions pins inputs that stress the paths most
// likely to crash or hang (keyword splitting against quotes, top-level
// comma scanning, numeric overflow, stray unicode). Each must return —
// accepting or rejecting is fine, panicking or looping is not.
func TestParseCrasherRegressions(t *testing.T) {
	crashers := []string{
		"",
		"SELECT * FROM t WHERE s = 'FROM WHERE GROUP BY ORDER BY LIMIT'",
		"SELECT * FROM t,,u",
		"SELECT (((((((((( FROM t",
		"SELECT * FROM t LIMIT 18446744073709551616",
		"SELECT * FROM t ORDER BY",
		"SELECT \x00 FROM \xff",
		"SELECT * FROM t WHERE a = DATE ''",
		"SELECT SUM( FROM t",
		"SELECT * FROM t GROUP BY ORDER BY LIMIT",
	}
	for _, sql := range crashers {
		q, err := Parse(sql)
		if err == nil && (q == nil || len(q.Tables) == 0) {
			t.Errorf("Parse(%q) = %v with nil error", sql, q)
		}
	}
}
