package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/storage"
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

// sortOp is a pipeline breaker: it orders its input at Open, then emits
// the ordered rows in batches. It keeps rows in a topK, which never holds
// more than TopK rows: a bounded max-heap ordered by (sort keys, input
// sequence) reproduces exactly the first TopK rows of the stable full
// sort. Without TopK the bound is never reached, so the topK drains the
// whole input into typed vectors, and sorting its slots is the full
// sort's permutation.
type sortOp struct {
	node *Sort
	emitter
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
	keys := make([]sortCol, len(s.By))
	for i, k := range s.By {
		keys[i].desc = k.Desc
		if keys[i].idx, err = schema.Resolve(k.Col); err != nil {
			return fmt.Errorf("engine: Sort key: %v", err)
		}
	}
	input := s.Input.Stream()
	defer input.Close()
	if err := input.Open(ctx, counters); err != nil {
		return err
	}
	o.src, o.out = getBatch(schema), getBatch(schema)
	h := &topK{keys: keys, k: s.TopK, rows: o.src.cols}
	if h.k <= 0 {
		h.k = math.MaxInt
	}
	for {
		b, err := input.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		h.add(b)
	}
	// Every input row participated in the ordering work, bounded heap or
	// not, so a top-K sort is charged as the full sort.
	counters.SortTuples += h.total
	slices.SortFunc(h.heap, h.compare)
	o.perm = h.heap
	return nil
}

// sortCol is one resolved ORDER BY term: its column ordinal and
// direction.
type sortCol struct {
	idx  int
	desc bool
}

// compareRows orders row i of the vectors a against row j of b, vectors
// of one schema, on the keys: -1, 0 or +1. Within a key, Int and Date
// compare as int64s and strings bytewise; a Float orders NaN after every
// number and ties NaN with NaN and -0 with +0, so the order is total.
// DESC reverses a key's order whole, so a NaN comes first under it, as
// in PostgreSQL.
//
//qo:hotpath
func compareRows(keys []sortCol, a []value.Vec, i int, b []value.Vec, j int) int {
	for _, k := range keys {
		x, y := &a[k.idx], &b[k.idx]
		var c int
		switch x.Kind {
		case catalog.Float:
			c = orderFloat(x.F[i], y.F[j])
		case catalog.String:
			c = strings.Compare(x.S[i], y.S[j])
		default:
			c = cmp.Compare(x.I[i], y.I[j])
		}
		if c == 0 {
			continue
		}
		if k.desc {
			return -c
		}
		return c
	}
	return 0
}

// orderFloat is the Float sort order: numbers ascending with -0 tying
// +0, then NaN, which ties NaN — cmp.Compare's, with NaN moved from
// first to last.
func orderFloat(x, y float64) int {
	if x != x || y != y {
		return -cmp.Compare(x, y)
	}
	return cmp.Compare(x, y)
}

// topK holds a Sort's rows: at most k of them, in the typed vectors
// rows, one slot each, beside seq, each slot's input sequence number.
// Once k rows are kept, heap orders the slots as a max-heap under
// compare, so its root is the worst kept row, and an entrant that beats
// the root overwrites the root's slot in place.
type topK struct {
	keys  []sortCol
	k     int
	rows  []value.Vec
	seq   []int64
	heap  []int32
	sel   []int
	total int64
}

// compare orders slot a against slot b: by the sort keys, then by input
// sequence, the tie-break of a stable sort.
func (h *topK) compare(a, b int32) int {
	if c := compareRows(h.keys, h.rows, int(a), h.rows, int(b)); c != 0 {
		return c
	}
	return cmp.Compare(h.seq[a], h.seq[b])
}

// add offers every row of b to the heap, in order. Until the heap holds
// k rows they enter unconditionally, appended in one gather a column, and
// the slots are heap-ordered once when the k-th arrives; after that each
// row is compared with the root in the batch's columns, so a row that
// does not enter is never copied.
//
//qo:hotpath
func (h *topK) add(b *Batch) {
	cols := b.Cols()
	r := min(b.Len(), h.k-len(h.heap))
	if r > 0 {
		h.sel = storage.RangeSel(h.sel, 0, r)
		for c := range h.rows {
			//qo:alloc-ok amortized growth to at most k rows
			value.AppendSel(&h.rows[c], &cols[c], h.sel)
		}
		for range r {
			//qo:alloc-ok amortized growth to at most k slots
			h.seq = append(h.seq, h.total)
			//qo:alloc-ok amortized growth to at most k slots
			h.heap = append(h.heap, int32(len(h.heap)))
			h.total++
		}
		for i := len(h.heap)/2 - 1; len(h.heap) == h.k && i >= 0; i-- {
			h.down(i)
		}
	}
	for ; r < b.Len(); r++ {
		root := h.heap[0]
		// Strictly ahead of the root on the keys: a tie keeps the root,
		// whose sequence is earlier.
		if compareRows(h.keys, cols, r, h.rows, int(root)) < 0 {
			for c := range h.rows {
				h.rows[c].Set(int(root), &cols[c], r)
			}
			h.seq[root] = h.total
			h.down(0)
		}
		h.total++
	}
}

// down sifts the slot at heap position i down to its place in the
// max-heap: a parent must not precede its children.
func (h *topK) down(i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h.heap) && h.compare(h.heap[worst], h.heap[l]) < 0 {
			worst = l
		}
		if r := 2*i + 2; r < len(h.heap) && h.compare(h.heap[worst], h.heap[r]) < 0 {
			worst = r
		}
		if worst == i {
			return
		}
		h.heap[i], h.heap[worst] = h.heap[worst], h.heap[i]
		i = worst
	}
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
