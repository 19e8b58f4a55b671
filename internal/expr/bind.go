package expr

import (
	"fmt"
	"strings"

	"robustqo/internal/catalog"
	"robustqo/internal/value"
)

// Field is one column of a relation schema as seen by the binder:
// the (possibly empty) table qualifier, the column name, and the type.
type Field struct {
	Table  string
	Column string
	Type   catalog.Type
}

// RelSchema describes the tuple layout an expression is evaluated against.
// Base-table scans use a schema with one field per table column; join
// results and join synopses use concatenated, table-qualified schemas.
type RelSchema struct {
	Fields []Field
}

// SchemaForTable builds the RelSchema of a base table, qualifying each
// field with the table name.
func SchemaForTable(s *catalog.TableSchema) RelSchema {
	fields := make([]Field, len(s.Columns))
	for i, c := range s.Columns {
		fields[i] = Field{Table: s.Name, Column: c.Name, Type: c.Type}
	}
	return RelSchema{Fields: fields}
}

// Concat returns the schema of this schema's fields followed by other's.
func (rs RelSchema) Concat(other RelSchema) RelSchema {
	fields := make([]Field, 0, len(rs.Fields)+len(other.Fields))
	fields = append(fields, rs.Fields...)
	fields = append(fields, other.Fields...)
	return RelSchema{Fields: fields}
}

// Resolve finds the ordinal of a column reference. Qualified references
// must match both table and column; unqualified references must match a
// unique column name across the schema.
func (rs RelSchema) Resolve(ref ColumnRef) (int, error) {
	switch ord, n := rs.find(ref); n {
	case 0:
		return 0, fmt.Errorf("expr: unknown column %s in schema %s", ref, rs)
	case 1:
		return ord, nil
	}
	return 0, fmt.Errorf("expr: ambiguous column reference %s", ref)
}

// find returns how many fields a column reference matches, as Resolve
// matches them, and the ordinal of the last.
func (rs RelSchema) find(ref ColumnRef) (ord, n int) {
	for i, f := range rs.Fields {
		if f.Column == ref.Column && (ref.Table == "" || f.Table == ref.Table) {
			ord, n = i, n+1
		}
	}
	return ord, n
}

// Ordinals returns the ordinals of the fields e reads, ascending and
// without repeats.
func (rs RelSchema) Ordinals(e Expr) ([]int, error) {
	reads := make([]bool, len(rs.Fields))
	for _, ref := range Columns(e) {
		c, err := rs.Resolve(ref)
		if err != nil {
			return nil, err
		}
		reads[c] = true
	}
	var out []int
	for c, r := range reads {
		if r {
			out = append(out, c)
		}
	}
	return out, nil
}

// String renders the schema for error messages.
func (rs RelSchema) String() string {
	parts := make([]string, len(rs.Fields))
	for i, f := range rs.Fields {
		name := f.Column
		if f.Table != "" {
			name = f.Table + "." + f.Column
		}
		parts[i] = name
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Bound is a predicate compiled once against a specific schema, ready for
// repeated evaluation over column-vector batches of that schema. It is the
// system's one predicate evaluator: scans, filters, join residuals and
// synopsis counting all run through EvalBatch. A Bound carries evaluation
// scratch, so it must not be shared between goroutines.
type Bound struct {
	evalBatch batchPredFn
	src       Expr
}

// Expr returns the source expression the predicate was bound from.
func (b *Bound) Expr() Expr { return b.src }

// EvalBatch evaluates the predicate over the rows of the column vectors
// named by the selection vector sel (strictly increasing row indices),
// returning the passing subset in ascending order. The result is a fresh
// slice; sel is never mutated or aliased.
//
//qo:hotpath
func (b *Bound) EvalBatch(cols []value.Vec, sel []int) ([]int, error) {
	return b.evalBatch(cols, sel)
}

// Bind compiles a predicate expression against a schema. A nil expression
// binds to the always-true predicate.
func Bind(e Expr, schema RelSchema) (*Bound, error) {
	if e == nil {
		return &Bound{evalBatch: func(cols []value.Vec, sel []int) ([]int, error) {
			return append([]int(nil), sel...), nil
		}}, nil
	}
	f, err := bindPredBatch(e, schema)
	if err != nil {
		return nil, err
	}
	return &Bound{evalBatch: f, src: e}, nil
}

// BoundScalar is a scalar expression compiled against a schema. Like a
// Bound it carries evaluation scratch, so it must not be shared between
// goroutines.
type BoundScalar struct {
	evalBatch batchScalarFn
}

// EvalBatch evaluates the scalar for the rows in sel and returns one
// typed vector indexed by row id whose values at the rows of sel are the
// results. The vector is one of cols or scratch of b: it must not be
// modified, and is valid until b's next EvalBatch.
//
//qo:hotpath
func (b *BoundScalar) EvalBatch(cols []value.Vec, sel []int) (*value.Vec, error) {
	return b.evalBatch(cols, sel)
}

// BindScalar compiles a scalar expression against a schema.
func BindScalar(e Expr, schema RelSchema) (*BoundScalar, error) {
	f, err := bindScalarBatch(e, schema)
	if err != nil {
		return nil, err
	}
	return &BoundScalar{evalBatch: f}, nil
}
