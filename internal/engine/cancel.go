package engine

import (
	"context"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
)

// CancelGuard makes an execution responsive to request cancellation: it
// wraps a plan root and checks the Go context between batches, so a
// client disconnect or per-request timeout stops the pull pipeline at
// the next batch boundary instead of running the query to completion.
//
// Cancellation is batch-granular by design. A blocking operator mid-
// Open (a sort or hash build materializing its input) finishes the
// batch it is pulling before the guard above it observes the cancel —
// the engine's operators are synchronous and never themselves poll a
// context. For the serve path this is the right trade: the guard costs
// one atomic load per batch on the hot path, and the longest
// uncancellable stretch is one operator's blocking phase, which the
// admission controller's memory budget already bounds.
//
// The guard sits outside the Instrumented root so that when it aborts
// an execution, closing it still closes the instrumented tree, which
// flushes the ledger feedback for whatever work did complete.
type CancelGuard struct {
	Inner Node
	Ctx   context.Context
}

// Guard wraps root with a cancellation check against ctx. A nil or
// background context returns root unchanged — zero overhead when the
// caller has no deadline.
func Guard(ctx context.Context, root Node) Node {
	if ctx == nil || ctx.Done() == nil {
		return root
	}
	return &CancelGuard{Inner: root, Ctx: ctx}
}

// Schema implements Node.
func (g *CancelGuard) Schema(ctx *Context) (expr.RelSchema, error) { return g.Inner.Schema(ctx) }

// Describe implements Node.
func (g *CancelGuard) Describe() string { return g.Inner.Describe() }

// Stream implements Node.
func (g *CancelGuard) Stream() Operator { return &cancelOp{node: g} }

type cancelOp struct {
	node  *CancelGuard
	inner Operator
}

func (o *cancelOp) Open(ctx *Context, counters *cost.Counters) error {
	if err := o.node.Ctx.Err(); err != nil {
		return err
	}
	o.inner = o.node.Inner.Stream()
	return o.inner.Open(ctx, counters)
}

//qo:hotpath
func (o *cancelOp) Next() (*Batch, error) {
	if err := o.node.Ctx.Err(); err != nil {
		return nil, err
	}
	return o.inner.Next()
}

func (o *cancelOp) Close() {
	if o.inner != nil {
		o.inner.Close()
	}
}
