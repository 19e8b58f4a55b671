// Package sqlparse parses a single-statement SQL SELECT into an
// optimizer.Query. The statement is lexed once, by package expr's lexer,
// and parsed by recursive descent over that one token stream with an
// expr.Parser:
//
//	query   = SELECT item {"," item} FROM name {"," name}
//	          [WHERE expr] [GROUP BY column {"," column}]
//	          [ORDER BY key {"," key}] [LIMIT integer]
//	item    = "*" | column | agg "(" ("*" | expr) ")" [AS name]
//	agg     = SUM | COUNT | MIN | MAX | AVG
//	key     = column [ASC | DESC]
//
// A column is one identifier token, optionally table-qualified; a name is
// an unqualified identifier; expr is package expr's expression grammar,
// which ends at the first token that cannot continue it. Every list item
// is required: an empty one ("t,,u", a trailing comma) is an error.
// Keywords are case-insensitive, and the clause words SELECT, FROM,
// WHERE, GROUP, ORDER and LIMIT are reserved. The FROM list names the
// tables of the foreign-key join (join predicates are implicit, per the
// paper's query model). An aggregate without AS is named after its
// function and the source text of its argument: sum_l_price, count.
//
// Semantics notes: with aggregates or GROUP BY present, every plain
// select item must appear in GROUP BY, and the output is the group
// columns followed by the aggregates. GROUP BY without aggregates yields
// the distinct group combinations.
package sqlparse

import (
	"fmt"
	"strings"

	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/optimizer"
)

// Parse converts the SELECT statement into a Query ready for the
// optimizer. Name and type resolution happens later, at optimization
// time, against the database's catalog.
func Parse(sql string) (*optimizer.Query, error) {
	p, err := expr.NewParser(sql)
	if err != nil {
		return nil, fmt.Errorf("sqlparse: %v", err)
	}
	if !p.Word("SELECT") {
		return nil, fmt.Errorf("sqlparse: statement must start with SELECT")
	}
	q := &optimizer.Query{}

	// SELECT list
	var plainCols []expr.ColumnRef
	star := false
	for more := true; more; more = p.Op(",") {
		switch name, call := p.Call(); {
		case call:
			agg, err := aggItem(p, sql, name)
			if err != nil {
				return nil, err
			}
			q.Aggs = append(q.Aggs, agg)
		case p.Op("*"):
			star = true
		default:
			ref, err := p.Column()
			if err != nil {
				return nil, fmt.Errorf("sqlparse: select item: %v", err)
			}
			plainCols = append(plainCols, ref)
		}
	}

	// FROM
	if !p.Word("FROM") {
		return nil, fmt.Errorf("sqlparse: expected FROM at offset %d", p.Offset())
	}
	for more := true; more; more = p.Op(",") {
		name, ok := p.Name()
		if !ok {
			return nil, fmt.Errorf("sqlparse: expected a table name at offset %d", p.Offset())
		}
		q.Tables = append(q.Tables, name)
	}

	// WHERE
	if p.Word("WHERE") {
		if q.Pred, err = p.Expr(); err != nil {
			return nil, fmt.Errorf("sqlparse: WHERE: %v", err)
		}
	}

	// GROUP BY
	if p.Word("GROUP") {
		if !p.Word("BY") {
			return nil, fmt.Errorf("sqlparse: expected BY at offset %d", p.Offset())
		}
		for more := true; more; more = p.Op(",") {
			ref, err := p.Column()
			if err != nil {
				return nil, fmt.Errorf("sqlparse: GROUP BY: %v", err)
			}
			q.GroupBy = append(q.GroupBy, ref)
		}
	}

	if star && (len(plainCols) > 0 || len(q.Aggs) > 0) {
		return nil, fmt.Errorf("sqlparse: '*' cannot be combined with other select items")
	}
	if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
		if star {
			return nil, fmt.Errorf("sqlparse: '*' is not valid with aggregation")
		}
		for _, c := range plainCols {
			if !refInList(c, q.GroupBy) {
				return nil, fmt.Errorf("sqlparse: select column %s must appear in GROUP BY", c)
			}
		}
	} else if !star {
		q.Project = plainCols
	}

	// ORDER BY
	if p.Word("ORDER") {
		if !p.Word("BY") {
			return nil, fmt.Errorf("sqlparse: expected BY at offset %d", p.Offset())
		}
		for more := true; more; more = p.Op(",") {
			ref, err := p.Column()
			if err != nil {
				return nil, fmt.Errorf("sqlparse: ORDER BY: %v", err)
			}
			desc := p.Word("DESC")
			if !desc {
				p.Word("ASC")
			}
			q.OrderBy = append(q.OrderBy, engine.SortKey{Col: ref, Desc: desc})
		}
	}

	// LIMIT
	if p.Word("LIMIT") {
		n, ok := p.Int()
		if !ok {
			return nil, fmt.Errorf("sqlparse: expected a non-negative integer LIMIT at offset %d", p.Offset())
		}
		q.Limit, q.LimitZero = n, n == 0
	}
	if !p.AtEnd() {
		return nil, fmt.Errorf("sqlparse: unexpected input at offset %d", p.Offset())
	}
	return q, nil
}

// aggItem parses the rest of the aggregate call "name(" arg ")" [AS alias]
// once p.Call has read its head; sql is the statement, for the default
// alias.
func aggItem(p *expr.Parser, sql, name string) (engine.AggSpec, error) {
	fn, ok := aggFunc(name)
	if !ok {
		return engine.AggSpec{}, fmt.Errorf("sqlparse: unknown aggregate %s", name)
	}
	spec := engine.AggSpec{Func: fn}
	var arg string
	if p.Op("*") {
		if fn != engine.Count {
			return engine.AggSpec{}, fmt.Errorf("sqlparse: %s(*) is not valid; only COUNT(*)", fn)
		}
	} else {
		start := p.Offset()
		e, err := p.Expr()
		if err != nil {
			return engine.AggSpec{}, fmt.Errorf("sqlparse: aggregate argument: %v", err)
		}
		spec.Arg = e
		arg = strings.TrimSpace(sql[start:p.Offset()])
	}
	if !p.Op(")") {
		return engine.AggSpec{}, fmt.Errorf("sqlparse: expected ')' at offset %d", p.Offset())
	}
	if !p.Word("AS") {
		spec.As = defaultAlias(fn, arg)
		return spec, nil
	}
	alias, ok := p.Name()
	if !ok {
		return engine.AggSpec{}, fmt.Errorf("sqlparse: expected an alias at offset %d", p.Offset())
	}
	spec.As = alias
	return spec, nil
}

// aggFunc returns the aggregate function name spells, ignoring case.
func aggFunc(name string) (engine.AggFunc, bool) {
	for _, fn := range []engine.AggFunc{engine.Sum, engine.Count, engine.Min, engine.Max, engine.Avg} {
		if strings.EqualFold(name, fn.String()) {
			return fn, true
		}
	}
	return 0, false
}

// defaultAlias names an aggregate after its function and the source text
// of its argument (empty for COUNT(*)), keeping letters, digits and
// underscores and turning dots into underscores.
func defaultAlias(fn engine.AggFunc, arg string) string {
	name := strings.ToLower(fn.String())
	if arg == "" {
		return name
	}
	clean := strings.Map(func(r rune) rune {
		switch {
		case r == '_' || r == '.':
			return '_'
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			return r
		default:
			return -1
		}
	}, arg)
	return name + "_" + clean
}

// refInList reports whether ref matches one of the group-by references,
// treating an unqualified reference as matching any qualification of the
// same column name.
func refInList(ref expr.ColumnRef, list []expr.ColumnRef) bool {
	for _, g := range list {
		if g == ref {
			return true
		}
		if g.Column == ref.Column && (g.Table == "" || ref.Table == "") {
			return true
		}
	}
	return false
}
