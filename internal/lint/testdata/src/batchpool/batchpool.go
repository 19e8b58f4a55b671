// Package batchpool exercises the batchpool analyzer: every batch
// obtained with getBatch must be put back, transferred, or stored in a
// field the package releases.
package batchpool

// Batch stands in for the engine's pooled column batch.
type Batch struct{ n int }

type schema struct{}

func getBatch(s schema) *Batch { return &Batch{} }

func putBatch(b *Batch) {}

func okDeferred(s schema) {
	b := getBatch(s)
	defer putBatch(b)
	b.n++
}

func okPlain(s schema) {
	b := getBatch(s)
	b.n++
	putBatch(b)
}

func okReturnTransfer(s schema) *Batch {
	b := getBatch(s)
	b.n = 1
	return b
}

func okSendTransfer(s schema, ch chan *Batch) {
	b := getBatch(s)
	ch <- b
}

func okCallTransfer(s schema) {
	b := getBatch(s)
	consume(b)
}

type owner struct {
	out     *Batch
	scratch *Batch
}

func okFieldOwner(o *owner, s schema) {
	o.out = getBatch(s)
}

func (o *owner) close() {
	putBatch(o.out)
	o.out = nil
}

func okCompositeOwner(s schema) *owner {
	return &owner{out: getBatch(s)}
}

func fieldNeverPut(o *owner, s schema) {
	o.scratch = getBatch(s) // want "no putBatch in this package ever releases it"
}

func leakNoPut(s schema) {
	b := getBatch(s) // want "never returned to the pool"
	b.n = 2
}

func leakEarlyReturn(s schema, fail bool) bool {
	b := getBatch(s) // want "a return path between getBatch and putBatch"
	if fail {
		return false
	}
	putBatch(b)
	return true
}

func doublePut(s schema) {
	b := getBatch(s)
	b.n++
	putBatch(b)
	putBatch(b) // want "double putBatch"
}

func useAfterPut(s schema) {
	b := getBatch(s)
	putBatch(b)
	b.n++ // want "used after putBatch"
}

func okReassignAfterPut(s schema) {
	b := getBatch(s)
	putBatch(b)
	b = getBatch(s)
	putBatch(b)
}

func okNilAfterPut(o *owner) {
	putBatch(o.out)
	o.out = nil
}

func discardedStmt(s schema) {
	getBatch(s) // want "discarded"
}

func discardedBlank(s schema) {
	_ = getBatch(s) // want "discarded"
}

func suppressed(s schema) {
	//qolint:allow-batchpool
	getBatch(s)
}

func consume(b *Batch) { putBatch(b) }

// The Exchange hand-off: a worker fills one pooled batch per morsel and
// sends it; ownership travels with the message, and the coordinator puts
// the batch back when it advances past it, or drains it on an early
// close.

type result struct {
	m   int
	b   *Batch
	err error
}

var errFailed error

type coordinator struct {
	results chan result
	pending map[int]result
	cur     *Batch
}

func okWorkerSendsMorsel(s schema, ch chan result, fail bool) {
	b := getBatch(s)
	if fail {
		putBatch(b)
		ch <- result{err: errFailed}
		return
	}
	ch <- result{b: b}
}

func (c *coordinator) okNext() *Batch {
	putBatch(c.cur)
	c.cur = nil
	r := <-c.results
	c.cur = r.b
	return c.cur
}

func (c *coordinator) okDrainOnClose() {
	for {
		select {
		case r := <-c.results:
			putBatch(r.b)
			continue
		default:
		}
		break
	}
	for _, r := range c.pending {
		putBatch(r.b)
	}
	putBatch(c.cur)
	c.cur = nil
}

func (c *coordinator) emitAfterPut() *Batch {
	putBatch(c.cur)
	return c.cur // want "used after putBatch"
}
