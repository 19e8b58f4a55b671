// Package expr provides typed predicate and scalar expression trees, name
// binding against relation schemas, vectorized evaluation over column
// batches, and a small SQL-like predicate parser.
//
// Expressions are deliberately general — comparisons, BETWEEN, boolean
// connectives, arithmetic, and substring matching — because one of the
// paper's selling points for sampling-based estimation is that it "works
// for almost any type of query predicate", unlike histograms which only
// handle equality and range predicates (Section 3.2, point 3).
package expr

import (
	"fmt"
	"strings"

	"robustqo/internal/value"
)

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// ArithOp enumerates arithmetic operators.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	default:
		return fmt.Sprintf("ArithOp(%d)", int(op))
	}
}

// ColumnRef names a column, optionally qualified by table.
type ColumnRef struct {
	Table  string // "" if unqualified
	Column string
}

func (c ColumnRef) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// Expr is a node of an expression tree. Implementations are Col, Lit,
// Cmp, Between, And, Or, Not, Arith, and Contains.
type Expr interface {
	fmt.Stringer
	// appendColumns accumulates every column referenced in the subtree.
	appendColumns(dst []ColumnRef) []ColumnRef
}

// Columns returns every column reference in the expression, in syntactic
// order, with duplicates preserved.
func Columns(e Expr) []ColumnRef {
	if e == nil {
		return nil
	}
	return e.appendColumns(nil)
}

// Col is a column reference.
type Col struct{ Ref ColumnRef }

// C is shorthand for an unqualified column reference.
func C(name string) Col { return Col{Ref: ColumnRef{Column: name}} }

// TC is shorthand for a table-qualified column reference.
func TC(table, name string) Col { return Col{Ref: ColumnRef{Table: table, Column: name}} }

func (c Col) String() string                            { return c.Ref.String() }
func (c Col) appendColumns(dst []ColumnRef) []ColumnRef { return append(dst, c.Ref) }

// Lit is a literal value.
type Lit struct{ Val value.Value }

// IntLit returns an integer literal.
func IntLit(v int64) Lit { return Lit{Val: value.Int(v)} }

// FloatLit returns a float literal.
func FloatLit(v float64) Lit { return Lit{Val: value.Float(v)} }

// StrLit returns a string literal.
func StrLit(v string) Lit { return Lit{Val: value.Str(v)} }

// DateLit returns a date literal from days since the epoch.
func DateLit(days int64) Lit { return Lit{Val: value.Date(days)} }

func (l Lit) String() string                            { return l.Val.String() }
func (l Lit) appendColumns(dst []ColumnRef) []ColumnRef { return dst }

// Cmp is a binary comparison L op R.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

func (c Cmp) String() string { return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R) }
func (c Cmp) appendColumns(dst []ColumnRef) []ColumnRef {
	return c.R.appendColumns(c.L.appendColumns(dst))
}

// Between is the ternary predicate Lo <= E <= Hi.
type Between struct {
	E, Lo, Hi Expr
}

func (b Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", b.E, b.Lo, b.Hi)
}
func (b Between) appendColumns(dst []ColumnRef) []ColumnRef {
	return b.Hi.appendColumns(b.Lo.appendColumns(b.E.appendColumns(dst)))
}

// And is a conjunction of predicates.
type And struct{ Terms []Expr }

// Conj builds an n-ary conjunction, flattening nested Ands. A single term
// is returned unwrapped; zero terms yield nil (the always-true predicate).
func Conj(terms ...Expr) Expr {
	var flat []Expr
	for _, t := range terms {
		if t == nil {
			continue
		}
		if a, ok := t.(And); ok {
			flat = append(flat, a.Terms...)
			continue
		}
		flat = append(flat, t)
	}
	switch len(flat) {
	case 0:
		return nil
	case 1:
		return flat[0]
	}
	return And{Terms: flat}
}

func (a And) String() string { return joinTerms(a.Terms, " AND ") }
func (a And) appendColumns(dst []ColumnRef) []ColumnRef {
	for _, t := range a.Terms {
		dst = t.appendColumns(dst)
	}
	return dst
}

// Or is a disjunction of predicates.
type Or struct{ Terms []Expr }

func (o Or) String() string { return joinTerms(o.Terms, " OR ") }
func (o Or) appendColumns(dst []ColumnRef) []ColumnRef {
	for _, t := range o.Terms {
		dst = t.appendColumns(dst)
	}
	return dst
}

func joinTerms(terms []Expr, sep string) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// Not negates a predicate.
type Not struct{ E Expr }

func (n Not) String() string                            { return "(NOT " + n.E.String() + ")" }
func (n Not) appendColumns(dst []ColumnRef) []ColumnRef { return n.E.appendColumns(dst) }

// Arith is a binary arithmetic expression over numeric operands.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

func (a Arith) String() string { return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R) }
func (a Arith) appendColumns(dst []ColumnRef) []ColumnRef {
	return a.R.appendColumns(a.L.appendColumns(dst))
}

// Contains is the substring predicate E LIKE '%Substr%'.
type Contains struct {
	E      Expr
	Substr string
}

func (c Contains) String() string {
	return fmt.Sprintf("(%s CONTAINS %q)", c.E, c.Substr)
}
func (c Contains) appendColumns(dst []ColumnRef) []ColumnRef { return c.E.appendColumns(dst) }

// SplitConjuncts decomposes a predicate into its top-level AND terms.
// A nil predicate yields nil.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if a, ok := e.(And); ok {
		return a.Terms
	}
	return []Expr{e}
}

// In is the list-membership predicate E IN (Vals...). Values are literal;
// list membership over expressions can be written as an OR of equalities.
type In struct {
	E    Expr
	Vals []value.Value
}

func (n In) String() string {
	parts := make([]string, len(n.Vals))
	for i, v := range n.Vals {
		parts[i] = v.String()
	}
	return fmt.Sprintf("(%s IN (%s))", n.E, strings.Join(parts, ", "))
}
func (n In) appendColumns(dst []ColumnRef) []ColumnRef { return n.E.appendColumns(dst) }
