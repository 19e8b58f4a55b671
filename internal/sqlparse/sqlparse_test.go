package sqlparse

import (
	"strings"
	"testing"

	"robustqo/internal/engine"
	"robustqo/internal/expr"
)

func TestParseBasicSelectStar(t *testing.T) {
	q, err := Parse("SELECT * FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 1 || q.Tables[0] != "lineitem" {
		t.Errorf("tables = %v", q.Tables)
	}
	if q.Pred != nil || q.Project != nil || q.Aggs != nil || q.Limit != 0 {
		t.Errorf("unexpected extras: %+v", q)
	}
}

func TestParseFullStatement(t *testing.T) {
	q, err := Parse(`SELECT l_partkey, SUM(l_extendedprice) AS revenue, COUNT(*)
		FROM lineitem, orders, part
		WHERE l_shipdate BETWEEN DATE '1997-07-01' AND DATE '1997-09-30' AND p_size < 10
		GROUP BY l_partkey
		ORDER BY l_partkey DESC
		LIMIT 25`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 3 || q.Tables[2] != "part" {
		t.Errorf("tables = %v", q.Tables)
	}
	if q.Pred == nil || !strings.Contains(q.Pred.String(), "BETWEEN") {
		t.Errorf("pred = %v", q.Pred)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].Column != "l_partkey" {
		t.Errorf("group by = %v", q.GroupBy)
	}
	if len(q.Aggs) != 2 {
		t.Fatalf("aggs = %v", q.Aggs)
	}
	if q.Aggs[0].Func != engine.Sum || q.Aggs[0].As != "revenue" {
		t.Errorf("agg0 = %+v", q.Aggs[0])
	}
	if q.Aggs[1].Func != engine.Count || q.Aggs[1].Arg != nil || q.Aggs[1].As != "count" {
		t.Errorf("agg1 = %+v", q.Aggs[1])
	}
	if len(q.OrderBy) != 1 || !q.OrderBy[0].Desc || q.OrderBy[0].Col.Column != "l_partkey" {
		t.Errorf("order by = %v", q.OrderBy)
	}
	if q.Limit != 25 {
		t.Errorf("limit = %d", q.Limit)
	}
}

func TestParseProjection(t *testing.T) {
	q, err := Parse("SELECT lineitem.l_id, l_price FROM lineitem WHERE l_price > 10 ORDER BY l_price ASC")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Project) != 2 || q.Project[0] != (expr.ColumnRef{Table: "lineitem", Column: "l_id"}) {
		t.Errorf("project = %v", q.Project)
	}
	if len(q.OrderBy) != 1 || q.OrderBy[0].Desc {
		t.Errorf("order by = %v", q.OrderBy)
	}
}

func TestParseGroupByWithoutAggs(t *testing.T) {
	// SELECT DISTINCT-style: group columns only.
	q, err := Parse("SELECT l_partkey FROM lineitem GROUP BY l_partkey")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 1 || len(q.Aggs) != 0 || q.Project != nil {
		t.Errorf("query = %+v", q)
	}
}

func TestParseAggregateArgExpression(t *testing.T) {
	q, err := Parse("SELECT SUM(l_price * l_quantity) FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggs) != 1 || q.Aggs[0].Arg == nil {
		t.Fatalf("aggs = %+v", q.Aggs)
	}
	if q.Aggs[0].As != "sum_l_price__l_quantity" && !strings.HasPrefix(q.Aggs[0].As, "sum_") {
		t.Errorf("alias = %q", q.Aggs[0].As)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse("select count(*) from lineitem where l_price > 1 group by l_partkey order by l_partkey limit 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggs) != 1 || q.Limit != 3 {
		t.Errorf("query = %+v", q)
	}
}

func TestKeywordsInsideStringsAndParens(t *testing.T) {
	// The words FROM/WHERE inside a string literal or parentheses must
	// not terminate clauses.
	q, err := Parse("SELECT * FROM notes WHERE body CONTAINS 'select from where group by' AND (qty + 1) > 2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Pred == nil || len(q.Tables) != 1 || q.Tables[0] != "notes" {
		t.Errorf("query = %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE t SET x = 1",
		"SELECT *",                   // no FROM
		"SELECT FROM t",              // empty select list
		"SELECT * FROM",              // no tables
		"SELECT * FROM t WHERE",      // empty predicate
		"SELECT * FROM t LIMIT x",    // bad limit
		"SELECT * FROM t LIMIT -1",   // negative limit
		"SELECT * FROM 123",          // bad table name
		"SELECT *, l_id FROM t",      // star plus items
		"SELECT a FROM t GROUP BY b", // non-grouped column
		"SELECT SUM(*) FROM t",       // SUM(*)
		"SELECT SUM(x) wat alias FROM t",
		"SELECT x FROM t ORDER BY", // empty order by
		"SELECT x FROM t ORDER BY x SIDEWAYS",
		"SELECT x FROM t GROUP BY", // empty group by
		"FROM t SELECT *",          // out of order
		"SELECT * FROM t WHERE a = 'unterminated",
		"SELECT * FROM t WHERE (a = 1", // unbalanced
		"SELECT * FROM t WHERE a = 1)", // unbalanced
		"junk SELECT * FROM t",         // leading text
		"SELECT * FROM t LIMIT 1 LIMIT 2",
		"SELECT COUNT(( FROM t",
		// Clause words are reserved: none names a column, table or alias.
		"SELECT * FROM t WHERE a = limit",
		"SELECT from FROM t",
		"SELECT SUM(x) AS select FROM t",
		"SELECT * FROM where",
		"SELECT * FROM t WHERE a = 1LIMIT 5", // a number glued to a word
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded", sql)
		}
	}
}

// TestParseRejectsEmptyListItems: every item of the FROM, select, GROUP BY
// and ORDER BY lists is required, so a doubled, leading or trailing comma
// is an error rather than a silently dropped item.
func TestParseRejectsEmptyListItems(t *testing.T) {
	for _, sql := range emptyItemShapes {
		if q, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) = %+v, want an error", sql, q)
		}
	}
}

// emptyItemShapes are statements with an empty list item; FuzzParse seeds
// from them too.
var emptyItemShapes = []string{
	"SELECT * FROM t,,u",
	"SELECT a,, b FROM t",
	"SELECT a, FROM t",
	"SELECT * FROM t ORDER BY a,",
	"SELECT * FROM t,",
	"SELECT , a FROM t",
	"SELECT a FROM t GROUP BY a,",
	"SELECT a FROM t GROUP BY , a",
}

func TestParseStarWithAggregationRejected(t *testing.T) {
	if _, err := Parse("SELECT * FROM t GROUP BY a"); err == nil {
		t.Error("star with GROUP BY accepted")
	}
	if _, err := Parse("SELECT *, COUNT(*) FROM t"); err == nil {
		t.Error("star with aggregate accepted")
	}
}

func TestParseRejectsNonSQL(t *testing.T) {
	if _, err := Parse("not sql"); err == nil {
		t.Error("Parse(\"not sql\") succeeded")
	}
}

func TestDefaultAliases(t *testing.T) {
	q, err := Parse("SELECT AVG(l_price), MIN(orders.o_total), sum( l_price * 2 ), COUNT( * ) FROM lineitem, orders")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"avg_l_price", "min_orders_o_total", "sum_l_price2", "count"} {
		if q.Aggs[i].As != want {
			t.Errorf("alias%d = %q, want %q", i, q.Aggs[i].As, want)
		}
	}
}
