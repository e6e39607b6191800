// Package serve is the online half of the paper's deployment story: the DNN
// composer runs once offline (§5.2) and the resulting artifact is served
// from memory for all future executions. It turns a composed model into an
// HTTP/JSON inference service with a dynamic micro-batcher — concurrent
// single-row requests are coalesced into one batched inference so the
// worker-pool throughput of rna.InferBatchStats is available to independent
// clients — plus the production plumbing around it: a bounded admission
// queue with explicit backpressure, per-request deadlines, graceful
// draining shutdown, and a metrics surface (/healthz, /stats).
//
// Coalescing never changes an answer: the per-row evaluation of both
// execution paths is pure, so a request's prediction is bit-identical no
// matter which batch it lands in, how large that batch is, or how many
// other clients are in flight.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/crossbar"
	"repro/internal/obs"
)

var (
	// ErrQueueFull is returned by Submit when the bounded admission queue is
	// at capacity — the server maps it to 503 + Retry-After so clients shed
	// load instead of piling on.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrClosed is returned by Submit once shutdown has begun: already
	// admitted requests drain to completion, new ones are refused.
	ErrClosed = errors.New("serve: shutting down")
	// ErrBackend wraps an InferFn failure — an error return, a panic, or a
	// prediction slice of the wrong length. It fails only the batch that hit
	// it (each of its requests gets the error; the server maps it to 500)
	// while the dispatcher keeps serving later batches.
	ErrBackend = errors.New("serve: inference backend failure")
)

// InferFn evaluates one coalesced batch: rows is a [n][features] batch in
// admission order; it returns one prediction per row and the substrate
// activity the batch accrued (zero for the software path). The batcher
// calls it from a single dispatcher goroutine, so implementations need not
// be re-entrant.
type InferFn func(rows [][]float32) ([]int, crossbar.Stats, error)

// BatcherConfig tunes the latency/throughput trade-off of the micro-batcher.
type BatcherConfig struct {
	// MaxBatch closes a batch at this many requests. 1 disables coalescing.
	MaxBatch int
	// MaxDelay closes a batch this long after its first request was picked
	// up, bounding the latency a lone request pays waiting for company.
	MaxDelay time.Duration
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrQueueFull instead of queueing unbounded latency.
	QueueDepth int
	// Trace, when set, records one span per dispatched batch (with a rows
	// label) on the TraceTrack track. Nil disables tracing at the cost of a
	// single nil check per batch.
	Trace *obs.Tracer
	// TraceTrack names the tracer track batch spans land on; defaults to
	// "serve".
	TraceTrack string
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.TraceTrack == "" {
		c.TraceTrack = "serve"
	}
	return c
}

// request is one admitted row waiting to be coalesced, and the channel its
// outcome is delivered on (buffered so a departed caller never blocks the
// dispatcher).
type request struct {
	row      []float32
	ctx      context.Context
	enqueued time.Time
	resp     chan result
}

type result struct {
	pred int
	err  error
}

// Batcher coalesces concurrent single-row submissions into batched InferFn
// calls: a batch closes when MaxBatch rows have gathered or MaxDelay has
// passed since its first row, whichever comes first.
type Batcher struct {
	cfg   BatcherConfig
	infer InferFn
	met   *Metrics

	queue chan *request

	mu      sync.RWMutex // guards closed against concurrent queue sends
	closed  bool
	drained chan struct{} // closed when the dispatcher has drained and exited
}

// NewBatcher starts a batcher draining into infer. met may be nil, in which
// case the batcher keeps its own (reachable via Metrics).
func NewBatcher(cfg BatcherConfig, infer InferFn, met *Metrics) *Batcher {
	if met == nil {
		met = NewMetrics()
	}
	cfg = cfg.withDefaults()
	b := &Batcher{
		cfg:     cfg,
		infer:   infer,
		met:     met,
		queue:   make(chan *request, cfg.QueueDepth),
		drained: make(chan struct{}),
	}
	go b.run()
	return b
}

// Metrics returns the metrics sink this batcher reports into.
func (b *Batcher) Metrics() *Metrics { return b.met }

// Depth reports the current admission-queue occupancy.
func (b *Batcher) Depth() int { return len(b.queue) }

// Submit enqueues one row and blocks until its prediction arrives, ctx is
// done, or shutdown begins. A full queue fails fast with ErrQueueFull.
func (b *Batcher) Submit(ctx context.Context, row []float32) (int, error) {
	req := &request{row: row, ctx: ctx, enqueued: time.Now(), resp: make(chan result, 1)}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return 0, ErrClosed
	}
	select {
	case b.queue <- req:
		b.mu.RUnlock()
		b.met.admit()
	default:
		b.mu.RUnlock()
		b.met.reject()
		return 0, ErrQueueFull
	}
	select {
	case r := <-req.resp:
		return r.pred, r.err
	case <-ctx.Done():
		// The dispatcher may still evaluate the row; its buffered resp send
		// cannot block and the result is simply dropped.
		return 0, ctx.Err()
	}
}

// Close stops admission and blocks until every already-admitted request has
// been answered. It is safe to call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.queue)
	}
	b.mu.Unlock()
	<-b.drained
}

// run is the dispatcher: it owns batch formation, so exactly one InferFn
// call is in flight at a time and the backend needs no locking.
func (b *Batcher) run() {
	defer close(b.drained)
	for {
		first, ok := <-b.queue
		if !ok {
			return // closed and fully drained
		}
		batch := []*request{first}
		timer := time.NewTimer(b.cfg.MaxDelay)
	collect:
		for len(batch) < b.cfg.MaxBatch {
			select {
			case req, ok := <-b.queue:
				if !ok {
					break collect // shutdown: flush this final partial batch
				}
				batch = append(batch, req)
			case <-timer.C:
				break collect
			}
		}
		timer.Stop()
		b.dispatch(batch)
	}
}

// dispatch evaluates one closed batch and distributes the results. Requests
// whose context is already done are answered without spending substrate
// work on them.
func (b *Batcher) dispatch(batch []*request) {
	live := make([]*request, 0, len(batch))
	for _, req := range batch {
		// Each outcome is counted before it is delivered, so a caller that
		// reads the metrics once Submit returns sees its own request.
		if err := req.ctx.Err(); err != nil {
			b.met.cancel()
			req.resp <- result{err: err}
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	rows := make([][]float32, len(live))
	for i, req := range live {
		rows[i] = req.row
	}
	// The explicit nil guard (rather than relying on the nil-tracer no-op)
	// keeps the disabled path free of the variadic label slice and the
	// strconv call, preserving the zero-allocation dispatch.
	var sp obs.Span
	if b.cfg.Trace != nil {
		sp = b.cfg.Trace.Start(b.cfg.TraceTrack, "batch",
			obs.L("rows", strconv.Itoa(len(live))))
	}
	preds, stats, err := b.safeInfer(rows)
	sp.End()
	// A backend that survives its own call can still hand back a prediction
	// slice that does not match the batch; indexing it blindly would panic
	// the dispatcher and hang every later Submit. Treat it as a failed batch.
	if err == nil && len(preds) != len(live) {
		err = fmt.Errorf("%w: backend returned %d predictions for %d rows", ErrBackend, len(preds), len(live))
	}
	if err != nil {
		for _, req := range live {
			b.met.fail()
			req.resp <- result{err: err}
		}
		return
	}
	b.met.observeBatch(len(live), stats)
	now := time.Now()
	for i, req := range live {
		// Inference takes real time — seconds on the hardware path — so a
		// request's deadline may have expired mid-batch. Its caller is gone
		// (Submit returned ctx.Err()); counting the delivery as completed
		// with an observed latency would flatter the stats.
		if cerr := req.ctx.Err(); cerr != nil {
			b.met.cancel()
			req.resp <- result{err: cerr}
			continue
		}
		b.met.observeDone(now.Sub(req.enqueued))
		req.resp <- result{pred: preds[i]}
	}
}

// safeInfer calls the backend with a panic guard: a panicking InferFn fails
// its batch with ErrBackend instead of killing the dispatcher goroutine
// (which would strand every queued and future request until deadline and
// deadlock Close).
func (b *Batcher) safeInfer(rows [][]float32) (preds []int, stats crossbar.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			preds, stats = nil, crossbar.Stats{}
			err = fmt.Errorf("%w: backend panic: %v", ErrBackend, r)
		}
	}()
	return b.infer(rows)
}
