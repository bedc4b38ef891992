package main

import (
	"sync"
	"sync/atomic"
	"time"

	"dpq/internal/prio"
	"dpq/internal/semantics"
	"dpq/internal/serve"
	"dpq/internal/sim"
)

// handlerClock accumulates the time spent inside a set of sim.Handlers.
// Handler time is kept as counters, not spans.
type handlerClock struct {
	activateNs, activations atomic.Int64
	handleNs, handled       atomic.Int64
}

func (c *handlerClock) busyNs() int64 { return c.activateNs.Load() + c.handleNs.Load() }

type timedHandler struct {
	h sim.Handler
	c *handlerClock
}

func (t *timedHandler) HandleMessage(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	t0 := time.Now()
	t.h.HandleMessage(ctx, from, msg)
	t.c.handleNs.Add(int64(time.Since(t0)))
	t.c.handled.Add(1)
}

func (t *timedHandler) Activate(ctx *sim.Context) {
	t0 := time.Now()
	t.h.Activate(ctx)
	t.c.activateNs.Add(int64(time.Since(t0)))
	t.c.activations.Add(1)
}

// timeHandlers wraps every handler so its calls are timed into c.
func timeHandlers(hs []sim.Handler, c *handlerClock) []sim.Handler {
	out := make([]sim.Handler, len(hs))
	flat := make([]timedHandler, len(hs))
	for i, h := range hs {
		flat[i] = timedHandler{h: h, c: c}
		out[i] = &flat[i]
	}
	return out
}

// heapCall is one serve.Heap Insert or Delete call, as the traced heap saw it.
type heapCall struct {
	host   int
	insert bool
	tag    string // insert payload: the client's request tag
	at     time.Time
	op     *semantics.Op
}

// tracedHeap sits between serve.Server and a protocol heap. It timestamps
// every Insert/Delete call (the end of serve admission) and every
// completion (the end of the protocol stage). The server is handed a
// stand-in trace whose completion callback is the server's own: completions
// of the real trace are timestamped here and then forwarded to it.
type tracedHeap struct {
	inner serve.Heap
	proxy *semantics.Trace

	mu    sync.Mutex
	calls []heapCall
	done  map[*semantics.Op]time.Time
}

func newTracedHeap(inner serve.Heap) *tracedHeap {
	return &tracedHeap{inner: inner, proxy: semantics.NewTrace(), done: map[*semantics.Op]time.Time{}}
}

// served returns the heap to hand to serve.New: resettable when the inner
// heap is, so the server and the Reconciler see the same capabilities.
func (t *tracedHeap) served() serve.Heap {
	if r, ok := t.inner.(serve.ResettableHeap); ok {
		return tracedResettable{t, r}
	}
	return t
}

// attach forwards the real trace's completions to the server's callback,
// which serve.New installed on the stand-in trace.
func (t *tracedHeap) attach() {
	t.inner.Trace().SetOnComplete(func(op *semantics.Op) {
		now := time.Now()
		t.mu.Lock()
		t.done[op] = now
		t.mu.Unlock()
		t.proxy.Complete(op, op.Result, op.Value)
	})
}

func (t *tracedHeap) record(c heapCall) {
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
}

func (t *tracedHeap) Insert(host int, id prio.ElemID, p uint64, payload string) *semantics.Op {
	at := time.Now()
	op := t.inner.Insert(host, id, p, payload)
	t.record(heapCall{host: host, insert: true, tag: payload, at: at, op: op})
	return op
}

func (t *tracedHeap) Delete(host int) *semantics.Op {
	at := time.Now()
	op := t.inner.Delete(host)
	t.record(heapCall{host: host, at: at, op: op})
	return op
}

func (t *tracedHeap) Reinsert(host int, e prio.Element) *semantics.Op {
	return t.inner.Reinsert(host, e)
}
func (t *tracedHeap) Trace() *semantics.Trace { return t.proxy }

// snapshot returns the recorded calls and completion times.
func (t *tracedHeap) snapshot() ([]heapCall, map[*semantics.Op]time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	done := make(map[*semantics.Op]time.Time, len(t.done))
	for k, v := range t.done {
		done[k] = v
	}
	return append([]heapCall(nil), t.calls...), done
}

type tracedResettable struct {
	*tracedHeap
	r serve.ResettableHeap
}

func (t tracedResettable) InjectReset()           { t.r.InjectReset() }
func (t tracedResettable) LastResetFloor() uint64 { return t.r.LastResetFloor() }
