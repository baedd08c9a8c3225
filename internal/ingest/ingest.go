// Package ingest is the batched request-absorption tier in front of the
// ODR decision engine: an ingestor → bounded queue → batch processor
// pipeline that turns "one decision per HTTP round trip" into "many
// decisions per call" without ever buffering unboundedly.
//
// The shape follows production delivery systems (and the paper's framing
// that the serving tier, not the wire, is where throughput is won):
//
//   - Admission: every item passes a per-user token bucket
//     (ratelimit.KeyedLimiter) before it may enter the pipeline. A user
//     over budget is rejected immediately with a Retry-After hint — load
//     a user was never going to be served does not occupy a queue slot.
//   - Bounded queues: admitted items are enqueued into per-worker queues
//     of at most QueueDepth items each, sharded by the caller-supplied
//     key so one user's items keep landing on the same worker. A
//     submission is a run of items: SubmitBatch places each item (home
//     queue, else its neighbor, else rejected) and then hands each
//     destination queue the items bound for it as one run, so the lock,
//     the clock read, the completion-group update and the channel send
//     are paid once per queue per call, not once per item. Room is
//     reserved atomically per item, so a full queue rejects the item (the
//     HTTP layer answers 503); nothing ever blocks the ingestor and
//     nothing ever buffers beyond Workers × QueueDepth items.
//   - Batch processing: each worker drains up to MaxBatch queued items —
//     splitting a run that does not fit, keeping its queue's order — and
//     hands them to the processor as one slice, so per-batch costs
//     (health probes, metric folds) amortize across the batch. Under
//     light load batches degenerate to single items and latency stays
//     one queue hop; under heavy load batches fill and throughput wins.
//   - Graceful drain: Close refuses new submissions, lets workers finish
//     everything already queued, and waits (bounded by the caller's
//     context) for them to exit. Every accepted item is processed exactly
//     once, even across shutdown.
//
// The pipeline exposes its internals through obs: queue depth, batch-size
// and end-to-end latency histograms, and admitted/rejected totals by
// cause.
package ingest

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"odr/internal/obs"
	"odr/internal/ratelimit"
)

// Config parameterizes a Pipeline. The zero value is usable: every field
// falls back to its documented default.
type Config struct {
	// Workers is the number of batch-processing goroutines (and bounded
	// queues). Default: GOMAXPROCS.
	Workers int
	// QueueDepth is each worker queue's capacity in items. Default 256.
	QueueDepth int
	// MaxBatch is the most items a worker passes to the processor in one
	// call. Default 64.
	MaxBatch int
	// AdmitRate is the per-user sustained admission budget in items per
	// second; 0 disables admission control (every item is admitted).
	AdmitRate float64
	// AdmitBurst is the per-user admission burst; 0 defaults to
	// AdmitRate (one second of budget).
	AdmitBurst float64
	// MaxUsers bounds the admission-control key population. Default
	// ratelimit.DefaultMaxKeys.
	MaxUsers int
	// Registry receives the odr_ingest_* metrics; nil disables recording
	// (handles are nil and every observation is a no-op).
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.AdmitBurst <= 0 {
		c.AdmitBurst = c.AdmitRate
	}
	return c
}

// Sentinel errors Submit and SubmitBatch report; the HTTP layer maps them onto 503s.
var (
	// ErrQueueFull: the item's home queue (and its neighbor) are at
	// capacity — the explicit backpressure signal.
	ErrQueueFull = errors.New("ingest: queue full")
	// ErrClosed: the pipeline is draining and admits no new work.
	ErrClosed = errors.New("ingest: pipeline closed")
)

// Rejection causes, the values of the odr_ingest_rejected_total cause
// label.
const (
	CauseAdmission = "admission"
	CauseQueueFull = "queue_full"
	CauseClosed    = "closed"
)

// Metric names.
const (
	metricQueueDepth = "odr_ingest_queue_depth"
	metricBatchSize  = "odr_ingest_batch_size"
	metricAdmitted   = "odr_ingest_admitted_total"
	metricRejected   = "odr_ingest_rejected_total"
	metricLatency    = "odr_ingest_decide_seconds"
	latencyScale     = 1e6 // observe microseconds, expose seconds
)

// run is the items one submission sends to one queue: they share a
// completion group and a submit time.
type run[T any] struct {
	items []T
	group *Group
	at    time.Time
}

// queue is one worker's bounded queue. held counts its items from the
// moment a submitter reserves room for one until the worker hands it to
// the processor; it never exceeds QueueDepth. Every run in runs carries
// at least one held item, so runs (capacity QueueDepth) never fills and
// a send after a reservation never blocks.
type queue[T any] struct {
	runs chan run[T]
	held atomic.Int64
}

// reserve takes room for one item in q, if q has any below depth.
func (q *queue[T]) reserve(depth int64) bool {
	for {
		n := q.held.Load()
		if n >= depth {
			return false
		}
		if q.held.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Pipeline is the ingest tier for items of type T. Construct with New;
// the zero value is not usable.
type Pipeline[T any] struct {
	cfg     Config
	process func([]T)
	queues  []*queue[T]
	limiter *ratelimit.KeyedLimiter

	// mu guards closed against concurrent submissions and Close:
	// submitters hold the read side across their sends, so Close's
	// channel close can never race a send.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup

	depth    *obs.Gauge
	batchSz  *obs.Histogram
	admitted *obs.Counter
	rejected map[string]*obs.Counter
	latency  *obs.Histogram
}

// New starts a pipeline whose workers hand drained batches to process.
// process is called from Workers goroutines, one batch at a time per
// worker, with 1 ≤ len(batch) ≤ MaxBatch; it must be safe for concurrent
// invocations. Items of one key are processed in submission order (they
// share a queue); items of different keys are not ordered.
func New[T any](cfg Config, process func(batch []T)) *Pipeline[T] {
	if process == nil {
		panic("ingest: nil process func")
	}
	cfg = cfg.withDefaults()
	p := &Pipeline[T]{
		cfg:     cfg,
		process: process,
		queues:  make([]*queue[T], cfg.Workers),
	}
	if cfg.AdmitRate > 0 {
		p.limiter = ratelimit.NewKeyedLimiter(cfg.AdmitRate, cfg.AdmitBurst, cfg.MaxUsers)
	}
	reg := cfg.Registry
	p.depth = reg.Gauge(metricQueueDepth)
	p.batchSz = reg.Histogram(metricBatchSize)
	p.admitted = reg.Counter(metricAdmitted)
	p.latency = reg.HistogramScaled(metricLatency, latencyScale)
	p.rejected = map[string]*obs.Counter{
		CauseAdmission: reg.Counter(obs.Label(metricRejected, "cause", CauseAdmission)),
		CauseQueueFull: reg.Counter(obs.Label(metricRejected, "cause", CauseQueueFull)),
		CauseClosed:    reg.Counter(obs.Label(metricRejected, "cause", CauseClosed)),
	}
	for i := range p.queues {
		q := &queue[T]{runs: make(chan run[T], cfg.QueueDepth)}
		p.queues[i] = q
		p.wg.Add(1)
		go p.worker(q)
	}
	return p
}

// Admit runs user through admission control: it reports whether one item
// of user's budget was taken, and on rejection how long the user should
// wait before retrying. With AdmitRate 0 every call is admitted.
func (p *Pipeline[T]) Admit(user string) (ok bool, retryAfter time.Duration) {
	if p.limiter == nil {
		return true, 0
	}
	if p.limiter.TryTake(user, 1) {
		return true, 0
	}
	p.rejected[CauseAdmission].Inc()
	return false, p.limiter.RetryAfter(user, 1)
}

// Submit enqueues item under g, sharded by key (items sharing a key share
// a queue and are processed in order). It never blocks: a full queue
// (after one neighbor-queue attempt) returns ErrQueueFull, a draining
// pipeline ErrClosed. On nil the item is accepted and g.Wait will cover
// its completion. Submit is SubmitBatch of one item.
func (p *Pipeline[T]) Submit(g *Group, key uint64, item T) error {
	var errs [1]error
	p.SubmitBatch(g, []uint64{key}, []T{item}, errs[:])
	return errs[0]
}

// SubmitBatch enqueues items under g, items[i] sharded by keys[i], and
// reports each item's outcome in errs[i]: nil when accepted, else the
// error Submit would return. It accepts, rejects and places the items
// exactly as Submit called on each in index order would — the home
// queue if it has room, else its neighbor, else ErrQueueFull; a draining
// pipeline refuses every item with ErrClosed — but each destination
// queue receives its items as one run, so the lock, the clock read, the
// group update and the channel send are paid once per queue, not once
// per item. It never blocks, and returns the number of items accepted.
// keys and errs must be as long as items.
func (p *Pipeline[T]) SubmitBatch(g *Group, keys []uint64, items []T, errs []error) int {
	if len(keys) != len(items) || len(errs) != len(items) {
		panic("ingest: SubmitBatch needs one key and one error slot per item")
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		for i := range errs {
			errs[i] = ErrClosed
		}
		p.rejected[CauseClosed].Add(uint64(len(items)))
		return 0
	}
	// Place every item in index order: dest[i] is its queue (-1:
	// rejected), ends[q] counts the items bound for queue q.
	nq := len(p.queues)
	depth := int64(p.cfg.QueueDepth)
	placement := make([]int, len(items)+nq)
	dest, ends := placement[:len(items)], placement[len(items):]
	accepted := 0
	for i, key := range keys {
		q := int(key % uint64(nq))
		if !p.queues[q].reserve(depth) {
			// One steal attempt on the neighbor smooths hash hot spots
			// without turning backpressure into a full scan.
			if q = (q + 1) % nq; !p.queues[q].reserve(depth) {
				dest[i], errs[i] = -1, ErrQueueFull
				continue
			}
		}
		dest[i], errs[i] = q, nil
		ends[q]++
		accepted++
	}
	if rejected := len(items) - accepted; rejected > 0 {
		p.rejected[CauseQueueFull].Add(uint64(rejected))
	}
	if accepted == 0 {
		return 0
	}
	// Lay the accepted items out queue after queue, each queue's in
	// index order, in one slab the runs share; ends[q] becomes the end
	// of queue q's stretch.
	off := 0
	for q, n := range ends {
		ends[q] = off
		off += n
	}
	slab := make([]T, accepted)
	for i, q := range dest {
		if q >= 0 {
			slab[ends[q]] = items[i]
			ends[q]++
		}
	}
	g.add(accepted)
	p.depth.Add(int64(accepted))
	at := time.Now()
	start := 0
	for q, end := range ends {
		if end > start {
			p.queues[q].runs <- run[T]{items: slab[start:end:end], group: g, at: at}
		}
		start = end
	}
	p.admitted.Add(uint64(accepted))
	return accepted
}

// QueueDepth reports the items currently queued (not yet handed to the
// processor) across all workers.
func (p *Pipeline[T]) QueueDepth() int {
	n := 0
	for _, q := range p.queues {
		n += int(q.held.Load())
	}
	return n
}

// worker drains one queue: it waits for a run, takes up to MaxBatch
// items from it and from the runs already queued behind it, and hands
// them to the processor in one call. A run longer than the room left is
// split, its tail opening the next call, so the queue's order holds. The
// loop exits when Close has closed the queue and the backlog is fully
// drained — accepted items are never dropped.
func (p *Pipeline[T]) worker(q *queue[T]) {
	defer p.wg.Done()
	batch := make([]T, 0, p.cfg.MaxBatch)
	// pieces are the runs (or parts of runs) in batch, in batch order.
	pieces := make([]run[T], 0, p.cfg.MaxBatch)
	var rest run[T] // what the last call left of a split run
	for {
		if len(rest.items) == 0 {
			var ok bool
			if rest, ok = <-q.runs; !ok {
				return
			}
		}
		batch, pieces = batch[:0], pieces[:0]
	fill:
		for {
			piece := rest
			piece.items = rest.items[:min(len(rest.items), p.cfg.MaxBatch-len(batch))]
			rest.items = rest.items[len(piece.items):]
			batch = append(batch, piece.items...)
			pieces = append(pieces, piece)
			if len(batch) == p.cfg.MaxBatch {
				break
			}
			select {
			case r, ok := <-q.runs:
				if !ok {
					break fill
				}
				rest = r
			default:
				break fill
			}
		}
		q.held.Add(-int64(len(batch)))
		p.depth.Add(-int64(len(batch)))
		p.batchSz.Observe(uint64(len(batch)))
		p.process(batch)
		// A piece's items share a submit time and a completion time:
		// tally their latency here and fold it into the shared
		// histogram once per call.
		now := time.Now()
		var lat obs.Counts
		for _, pc := range pieces {
			if d := now.Sub(pc.at); d >= 0 {
				us := uint64(d.Seconds() * latencyScale)
				for range pc.items {
					lat.Observe(us)
				}
			}
			pc.group.finish(len(pc.items))
		}
		p.latency.AddCounts(lat.Sum, &lat.Buckets)
	}
}

// Close drains the pipeline: new submissions fail with ErrClosed,
// workers finish every item already queued, and Close returns when they
// have exited or ctx expires (the workers keep draining either way; an
// expired ctx only abandons the wait). Close is idempotent.
func (p *Pipeline[T]) Close(ctx context.Context) error {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for _, q := range p.queues {
			close(q.runs)
		}
	}
	p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Group tracks the completion of one caller's submissions — the bridge
// between an HTTP handler that fanned a batch of items into the pipeline
// and the workers completing them. Use: NewGroup, Submit or SubmitBatch,
// then Wait. A Group must not be reused after Wait returns.
type Group struct {
	// remaining counts accepted, unprocessed items plus the sentinel.
	remaining atomic.Int64
	done      chan struct{}
}

// NewGroup returns a group holding one sentinel reference, released by
// Wait — so the count can never hit zero between two submissions.
func (p *Pipeline[T]) NewGroup() *Group {
	g := &Group{done: make(chan struct{})}
	g.remaining.Store(1)
	return g
}

// add counts n accepted items; it precedes their sends, so no worker can
// finish them first.
func (g *Group) add(n int) { g.remaining.Add(int64(n)) }

// finish counts n items (or the sentinel) done; the one call that takes
// the count to zero closes done.
func (g *Group) finish(n int) {
	if g.remaining.Add(-int64(n)) == 0 {
		close(g.done)
	}
}

// Wait blocks until every accepted submission has been processed or ctx
// is done. A ctx error means the caller stopped waiting; the items are
// still processed (and their result slots written) by the workers.
func (g *Group) Wait(ctx context.Context) error {
	g.finish(1) // release the sentinel
	select {
	case <-g.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
