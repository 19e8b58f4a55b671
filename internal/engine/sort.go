package engine

import (
	"fmt"
	"sort"
	"strings"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/value"
)

// SortKey is one ORDER BY term.
type SortKey struct {
	Col  expr.ColumnRef
	Desc bool
}

func (k SortKey) String() string {
	if k.Desc {
		return k.Col.String() + " DESC"
	}
	return k.Col.String()
}

// Sort materializes and orders its input by the sort keys. Ties preserve
// input order (stable sort).
type Sort struct {
	Input Node
	By    []SortKey
	// TopK, when positive, bounds the output to the first TopK rows of the
	// sorted order. The streaming path then keeps a bounded heap instead of
	// materializing the full sorted input; the optimizer sets it when the
	// query carries a LIMIT. Zero means sort everything.
	TopK int
}

// Schema implements Node.
func (s *Sort) Schema(ctx *Context) (expr.RelSchema, error) { return s.Input.Schema(ctx) }

// Describe implements Node.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.By))
	for i, k := range s.By {
		parts[i] = k.String()
	}
	d := "Sort(" + strings.Join(parts, ", ") + ")"
	if s.TopK > 0 {
		d += fmt.Sprintf(" top=%d", s.TopK)
	}
	return d
}

// Stream implements Node.
func (s *Sort) Stream() Operator { return &sortOp{node: s} }

// sortOp is a pipeline breaker: it drains its input at Open, then emits
// the ordered rows in batches. With TopK set it never holds more than
// TopK rows — a bounded max-heap ordered by (sort keys, input sequence)
// reproduces exactly the first TopK rows of the stable full sort.
type sortOp struct {
	node *Sort
	rows []value.Row
	next int
	out  *Batch
}

// sortKeyed pairs a row with its input sequence number; the sequence
// breaks ties exactly as a stable sort would.
type sortKeyed struct {
	row value.Row
	seq int
}

func (o *sortOp) Open(ctx *Context, counters *cost.Counters) error {
	s := o.node
	if len(s.By) == 0 {
		return fmt.Errorf("engine: Sort with no keys")
	}
	schema, err := s.Input.Schema(ctx)
	if err != nil {
		return err
	}
	idxs := make([]int, len(s.By))
	for i, k := range s.By {
		idxs[i], err = schema.Resolve(k.Col)
		if err != nil {
			return fmt.Errorf("engine: Sort key: %v", err)
		}
	}
	// cmp orders row x against row y on the sort keys: value.Compare's
	// order, which never fails on two values of one typed column.
	cmp := func(x, y value.Row) int {
		for ki, idx := range idxs {
			c, _ := value.Compare(x[idx], y[idx])
			if c == 0 {
				continue
			}
			if s.By[ki].Desc {
				return -c
			}
			return c
		}
		return 0
	}
	// cmpAt is cmp with row r of the batch columns cols as x, read from
	// the typed payloads.
	cmpAt := func(cols []value.Vec, r int, y value.Row) int {
		for ki, idx := range idxs {
			c := compareAt(&cols[idx], r, y[idx])
			if c == 0 {
				continue
			}
			if s.By[ki].Desc {
				return -c
			}
			return c
		}
		return 0
	}
	// before reports a strictly preceding b in the output order.
	before := func(a, b sortKeyed) bool {
		if c := cmp(a.row, b.row); c != 0 {
			return c < 0
		}
		return a.seq < b.seq
	}

	input := s.Input.Stream()
	defer input.Close()
	if err := input.Open(ctx, counters); err != nil {
		return err
	}
	var (
		heap  []sortKeyed // max-heap: root is the worst retained row
		all   []sortKeyed
		total int64
	)
	// A full heap compares each row with its root in the batch columns: a
	// row that does not enter the heap is never copied.
	for {
		b, err := input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		cols := b.Cols()
		for r := 0; r < b.Len(); r++ {
			seq := int(total)
			total++
			switch {
			case s.TopK <= 0:
				all = append(all, sortKeyed{row: b.CloneRow(r), seq: seq})
			case len(heap) < s.TopK:
				heap = append(heap, sortKeyed{row: b.CloneRow(r), seq: seq})
				siftUp(heap, len(heap)-1, before)
			case cmpAt(cols, r, heap[0].row) < 0:
				// Strictly ahead of the root on the keys: a tie keeps the
				// root, whose sequence is earlier. The evicted root's row
				// takes the entrant's values.
				b.Row(r, heap[0].row)
				heap[0].seq = seq
				siftDown(heap, 0, before)
			}
		}
	}
	// Every input row participated in the ordering work, bounded heap or
	// not, so the sort charge matches the materialized path exactly.
	counters.SortTuples += total
	items := all
	if s.TopK > 0 {
		items = heap
	}
	sort.Slice(items, func(a, b int) bool { return before(items[a], items[b]) })
	o.rows = make([]value.Row, len(items))
	for i, it := range items {
		o.rows[i] = it.row
	}
	o.out = getBatch(schema)
	return nil
}

// compareAt is value.Compare(v.At(i), y) for a y of v's kind class,
// read from v's payload.
func compareAt(v *value.Vec, i int, y value.Value) int {
	switch v.Kind {
	case catalog.Float:
		return cmp3(v.F[i], y.F)
	case catalog.String:
		return cmp3(v.S[i], y.S)
	default:
		return cmp3(v.I[i], y.I)
	}
}

// cmp3 is -1, 0 or +1 as x is below, neither below nor above, or above
// y: a NaN compares equal to everything, as in value.Compare.
func cmp3[T int64 | float64 | string](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// siftUp restores the max-heap property after appending at position i:
// a parent must not precede its children under before.
func siftUp(h []sortKeyed, i int, before func(a, b sortKeyed) bool) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(h[parent], h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores the max-heap property after replacing the root.
func siftDown(h []sortKeyed, i int, before func(a, b sortKeyed) bool) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && before(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && before(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

func (o *sortOp) Next() (*Batch, error) {
	if o.next >= len(o.rows) {
		return nil, nil
	}
	end := o.next + BatchSize
	if end > len(o.rows) {
		end = len(o.rows)
	}
	o.out.Reset()
	for _, r := range o.rows[o.next:end] {
		o.out.AppendRow(r)
	}
	o.next = end
	return o.out, nil
}

func (o *sortOp) Close() {
	putBatch(o.out)
	o.out = nil
}

// Limit passes through at most N input rows. In the streaming pipeline it
// stops pulling its input as soon as N rows have been emitted, which is
// what spares a LIMIT 10 over a large scan from reading the whole table.
type Limit struct {
	Input Node
	N     int
}

// Schema implements Node.
func (l *Limit) Schema(ctx *Context) (expr.RelSchema, error) { return l.Input.Schema(ctx) }

// Describe implements Node.
func (l *Limit) Describe() string { return fmt.Sprintf("Limit(%d)", l.N) }

// Stream implements Node.
func (l *Limit) Stream() Operator { return &limitOp{node: l} }

type limitOp struct {
	node    *Limit
	input   Operator
	emitted int
}

func (o *limitOp) Open(ctx *Context, counters *cost.Counters) error {
	if o.node.N < 0 {
		return fmt.Errorf("engine: negative limit %d", o.node.N)
	}
	o.input = o.node.Input.Stream()
	return o.input.Open(ctx, counters)
}

func (o *limitOp) Next() (*Batch, error) {
	if o.emitted >= o.node.N {
		return nil, nil
	}
	b, err := o.input.Next()
	if err != nil {
		return nil, err
	}
	if b == nil {
		return nil, nil
	}
	b.Truncate(o.node.N - o.emitted)
	o.emitted += b.Len()
	return b, nil
}

func (o *limitOp) Close() {
	if o.input != nil {
		o.input.Close()
	}
}
