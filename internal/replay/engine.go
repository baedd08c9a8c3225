package replay

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"odr/internal/backend"
	"odr/internal/dist"
	"odr/internal/obs"
	"odr/internal/smartap"
	"odr/internal/workload"
)

// The sharded replay engine partitions a request stream by user across N
// shards and replays each shard on its own goroutine. Its output is
// byte-identical for every shard count and GOMAXPROCS because no request
// outcome depends on execution order:
//
//   - each request draws from its own RNG substream keyed by the
//     request's GLOBAL index (root.Split64(i)), never from a shared
//     sequential stream;
//   - backend state is immutable after construction or a pure function
//     of (seed, file), and each request's cache verdict is latched by
//     the sequential observation pass in index order, so "who ran first"
//     is unobservable;
//   - every shard writes each task in place to the slot of its own
//     global index, counts into its own ShardTotals, and charges backend
//     ledgers, metrics and wrapper counters to its own backend.Tally —
//     all merges are associative integer sums taken in shard order.
//
// Who writes what, and when. The reader goroutine alone runs the observe
// hook, in index order, once per record: for an ODR replay that resolves
// the record's file and user ordinals (backend.Population.Resolve) and
// observes the record on the cloud (backend.Cloud.ObserveOrdinal), which
// builds the file's slot on its first observation and latches the
// record's cache verdict bit. The reader then packs the record and its
// ordinals into a batch; the batch's channel send to the shard is the
// publication point. A worker reads its own record's verdict bit, plus
// the file slot's pre-download outcome when it pre-downloads; both were
// written before the send and are never written again. Workers write only
// their own tasks, their own ShardTotals, their own backend.Tally, and —
// under resilience — the breaker slots of the users their shard owns.
// No worker takes a backend lock or adds into a shared counter. Each
// shard runs a task function of its own (runShardedStream's shardTask
// builds it), so per-shard state — a recorded run's task tally, a scratch
// task — is the shard's alone; the engine folds the backend tallies once
// every shard has exited, and the caller folds the task tallies after
// the engine returns.
//
// All floating-point aggregation (ratios, means, stats.Sample) happens
// afterwards, sequentially over the merged task slice in index order.

// ShardTotals is one shard's local accumulator: plain integer counters a
// shard increments without synchronization and the engine merges in
// shard order, so the merged totals are identical for any interleaving.
type ShardTotals struct {
	// Tasks is how many requests the shard replayed.
	Tasks int64
	// Failures is how many of them never obtained their file.
	Failures int64
}

// EngineStats describes how a replay was executed and what each shard
// contributed. It is diagnostic: the task slice is the ground truth.
type EngineStats struct {
	// Shards is the shard count the run actually used.
	Shards int
	// PerShard holds each shard's local totals, indexed by shard.
	PerShard []ShardTotals
	// Reader is where the reader goroutine's time went; zero unless the
	// run had a metrics registry.
	Reader ReaderStages
}

// ReaderStages splits the engine reader's time into its three stages:
// pulling a record from the source (Decode — for a trace, the decoder),
// resolving and observing it (Resolve — the observe hook), and waiting
// to hand a batch to its shard (Dispatch — a free batch to fill, then
// the work queue's room). Decode and Resolve are estimated from one
// record in readerSample, scaled to every record; Dispatch is timed at
// each batch hand-off. The clock never runs once per record, and not at
// all without a registry. The times depend on scheduling, so they stay
// out of the run's registry, whose contents are a pure function of the
// replay (PublishReaderStages puts them in another).
type ReaderStages struct {
	Decode, Resolve, Dispatch time.Duration
	// Sampled is how many records Decode and Resolve were timed over.
	Sampled int
}

// readerSample is how many records the reader pulls per record it times.
const readerSample = 64

// Totals merges the per-shard accumulators.
func (s EngineStats) Totals() ShardTotals {
	var t ShardTotals
	for _, p := range s.PerShard {
		t.Tasks += p.Tasks
		t.Failures += p.Failures
	}
	return t
}

// streamChunk is how many requests the reader packs into one batch before
// handing it to a shard worker. Larger chunks amortize channel operations
// over more requests at the cost of latency before the first task
// completes and a larger in-flight window. Replay output is byte-identical
// for every chunk size; the in-package tests replay at small chunks
// through Options.chunk to prove it (TestReplayDeterminism).
const streamChunk = 512

// streamBatchDepth is how many batches circulate per shard: the free
// list starts with this many, so at any moment a shard has at most
// streamBatchDepth batches between the reader's hands, its work queue,
// and its worker. Together with the chunk size it caps how far the
// reader can run ahead, keeping reader-side memory constant in stream
// length.
const streamBatchDepth = 8

// poisonReleasedBatches, when set (tests only), makes workers overwrite
// every cell of a batch with an obviously-wrong value before releasing it
// to the free list. Any code that wrongly retains a cell across release —
// the bug class object pooling invites — then dereferences a nil user or
// replays a negative index instead of silently reading stale data.
var poisonReleasedBatches = false

// poisonIndex is the request index poisoned cells carry.
const poisonIndex = -0x5D5D5D5D

// userShard places a user on a shard. Fibonacci hashing decorrelates the
// shard from the round-robin structure of user IDs and AP assignment.
func userShard(u *workload.User, shards int) int {
	h := uint64(uint(u.ID)) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(shards))
}

// streamCell carries one request and its ordinals from the reader to a
// shard worker. The reader fills cells before the batch's channel send and
// the owning worker reads them before releasing the batch — every access
// is ordered by the channel operations.
type streamCell struct {
	i          int
	wreq       workload.Request
	file, user backend.Ordinal
}

// bindRequest points the reused backend request at one replay request at
// global index i, reseeding the worker's scratch RNG to the exact
// substream root.Split64(i) would return, and charging it to the shard's
// backend tally (nil: the shared state). Reset-then-fill keeps the pooled
// object's contract obvious: nothing from the previous request survives.
func bindRequest(req *backend.Request, rng *dist.RNG, root *dist.RNG, tally *backend.Tally,
	i int, c *streamCell, aps []*smartap.AP) {
	req.Reset()
	req.Tally = tally
	root.Split64Into(rng, uint64(i))
	req.Index = i
	req.User = c.wreq.User
	req.File = c.wreq.File
	req.FileOrd = c.file
	req.UserOrd = c.user
	req.RNG = rng
	req.EnvCap = EnvCap
	req.When = c.wreq.Time
	if len(aps) > 0 {
		req.AP = aps[i%len(aps)]
	}
}

// sized returns src with its length: a workload.Sizer's announced count,
// or, for a source of unknown length, the count of the request slice it
// is first drained into (workload.Collect).
func sized(src workload.RequestSource) (workload.RequestSource, int, error) {
	if sz, ok := src.(workload.Sizer); ok {
		if n := sz.TotalRequests(); n > 0 {
			return src, n, nil
		}
	}
	reqs, err := workload.Collect(src)
	if err != nil {
		return nil, 0, err
	}
	return workload.NewSliceSource(reqs), len(reqs), nil
}

// shardCount is the shard count a run of n records uses: shards, or
// GOMAXPROCS when shards is non-positive, and never more than n when n is
// known (positive).
func shardCount(shards, n int) int {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if n > 0 && shards > n {
		shards = n
	}
	return shards
}

// everyShard is the work of a run whose shards share one task function
// that keeps no state of its own.
func everyShard[T any](fn func(int, workload.Request, *backend.Request, *T) bool) func(int) func(int, workload.Request, *backend.Request, *T) bool {
	return func(int) func(int, workload.Request, *backend.Request, *T) bool { return fn }
}

// runShardedStream replays src across user-partitioned shards: a single
// reader goroutine (the caller) pulls requests in global-index order,
// invokes the observe hook (ordinal resolution and cloud observation) on
// each, and packs them with the ordinals it returned into fixed-size
// batches fanned out to per-shard work channels keyed by user partition.
// Shard s runs the task function shardTask(s) returns, built once on the
// shard's goroutine: it receives the request's local index, the raw
// workload request, the backend-layer request (environment-bound, with
// its own RNG substream), and the task slot to fill in place; it returns
// whether the task succeeded. The request object and its RNG are pooled
// per shard — the function must not retain them past the call. aps may
// be empty for AP-less replays (the request's AP is then nil).
//
// base offsets every request's GLOBAL index: the source yields local
// indices 0..n-1 (every RequestSource re-bases at 0), and the engine
// binds request k to global index base+k — its RNG substream, AP
// assignment, and cloud cache verdict are exactly those the same record
// would get in a full-stream replay where it sits at position base+k.
// This is what lets a window of a larger trace replay in isolation and
// still merge digest-identically (see internal/distrib). observe and fn
// still receive the local index; callers that need the global one add
// base themselves.
//
// The steady state allocates nothing per request. Batches circulate
// between each shard's work queue and a free list (streamBatchDepth per
// shard), so the transport reuses the same few arrays for the whole
// stream; workers reuse one backend.Request and one scratch RNG each —
// reseeded per request to the index-keyed substream. The result slice is
// allocated once at the source's announced length (workload.Sizer) and
// each worker fills tasks[i] in place: shards own disjoint index sets, so
// no two goroutines touch one slot. A sized source that yields more than
// it announced fails the run; one that yields fewer returns what it
// yielded. A source of unknown length (a non-seekable trace stream) is
// first drained into a request slice (workload.Collect, which holds it
// to the same index and error contract) and replayed from there. The
// output is byte-identical for any shard count, chunk size, and
// GOMAXPROCS.
//
// The shard count is shardCount(shards, n) for a source of n records.
// Non-positive chunk selects streamChunk; only tests pass anything else.
//
// dst, when non-nil, is the run's registry: the engine records the
// in-flight peak there and times its reader (EngineStats.Reader). A
// caller that keeps per-shard state sizes it with shardCount, which
// gives the shard count the run uses.
//
// fold, when non-nil, gives each shard a backend.Tally of its own: every
// request the shard binds is charged to it, and once every shard has
// exited the engine hands the tallies to fold in shard order — whatever
// the run's outcome — before it returns. A nil fold binds requests with
// no tally, which charge the shared ledgers and handles as they run.
func runShardedStream[T any](src workload.RequestSource, aps []*smartap.AP,
	seed uint64, base, shards, chunk int, dst *obs.Registry, fold func(*backend.Tally),
	observe func(i int, wreq workload.Request) (file, user backend.Ordinal),
	shardTask func(shard int) func(i int, wreq workload.Request, req *backend.Request, task *T) bool,
) ([]T, EngineStats, error) {
	src, hint, err := sized(src)
	if err != nil {
		return nil, EngineStats{}, err
	}
	shards = shardCount(shards, hint)
	if chunk <= 0 {
		chunk = streamChunk
	}
	root := dist.NewRNG(seed).Split("replay-engine")
	stats := EngineStats{Shards: shards, PerShard: make([]ShardTotals, shards)}
	// The in-flight high-water mark depends on goroutine scheduling, not
	// on the replay; it is recorded straight into the destination registry
	// and excluded from the determinism contract (a nil dst yields a nil
	// gauge).
	inflight := dst.Gauge(MetricInflightPeak)

	tasks := make([]T, hint)
	tallies := make([]*backend.Tally, shards)

	work := make([]chan []streamCell, shards)
	free := make([]chan []streamCell, shards)
	for s := 0; s < shards; s++ {
		work[s] = make(chan []streamCell, streamBatchDepth)
		// Stock the free list with the shard's full batch budget; the
		// worker's release below can then never block, and the reader's
		// receive here is the transport's only backpressure point.
		free[s] = make(chan []streamCell, streamBatchDepth)
		for j := 0; j < streamBatchDepth; j++ {
			free[s] <- make([]streamCell, 0, chunk)
		}
	}

	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			totals := &stats.PerShard[s]
			fn := shardTask(s)
			req := &backend.Request{}
			rng := dist.NewRNG(0)
			if fold != nil {
				tallies[s] = new(backend.Tally)
			}
			tally := tallies[s]
			for batch := range work[s] {
				for k := range batch {
					c := &batch[k]
					bindRequest(req, rng, root, tally, base+c.i, c, aps)
					ok := fn(c.i, c.wreq, req, &tasks[c.i])
					totals.Tasks++
					if !ok {
						totals.Failures++
					}
				}
				if poisonReleasedBatches {
					for k := range batch {
						batch[k] = streamCell{i: poisonIndex}
					}
				}
				free[s] <- batch[:0]
			}
		}(s)
	}

	shut := func() {
		for _, ch := range work {
			close(ch)
		}
		wg.Wait()
		if fold != nil {
			for _, t := range tallies {
				fold(t)
			}
		}
	}
	fail := func(err error) ([]T, EngineStats, error) {
		shut()
		return nil, stats, err
	}

	// timed: the run is observed, so the reader times its stages.
	timed := dst != nil
	stages := &stats.Reader
	cur := make([][]streamCell, shards)
	flush := func(s int) {
		if len(cur[s]) == 0 {
			return
		}
		if inflight != nil {
			inflight.Max(int64((len(work[s]) + 1) * chunk))
		}
		if timed {
			t := time.Now()
			work[s] <- cur[s]
			stages.Dispatch += time.Since(t)
		} else {
			work[s] <- cur[s]
		}
		cur[s] = nil
	}
	n := 0
	var t0 time.Time
	for {
		sampled := timed && n%readerSample == 0
		if sampled {
			t0 = time.Now()
		}
		i, wreq, ok := src.Next()
		if !ok {
			break
		}
		if i != n {
			return fail(fmt.Errorf("replay: source yielded index %d, want %d", i, n))
		}
		if n == hint {
			return fail(fmt.Errorf("replay: source announced %d requests (workload.Sizer) but yielded at least %d", hint, n+1))
		}
		if sampled {
			t := time.Now()
			stages.Decode += t.Sub(t0)
			t0 = t
		}
		c := streamCell{i: i, wreq: wreq}
		if observe != nil {
			c.file, c.user = observe(i, wreq)
		}
		if sampled {
			stages.Resolve += time.Since(t0)
			stages.Sampled++
		}
		n++
		s := userShard(wreq.User, shards)
		if cur[s] == nil {
			if timed {
				t := time.Now()
				cur[s] = <-free[s]
				stages.Dispatch += time.Since(t)
			} else {
				cur[s] = <-free[s]
			}
		}
		cur[s] = append(cur[s], c)
		if len(cur[s]) == chunk {
			flush(s)
		}
	}
	for s := range cur {
		flush(s)
	}
	shut()
	if stages.Sampled > 0 {
		scale := float64(n) / float64(stages.Sampled)
		stages.Decode = time.Duration(float64(stages.Decode) * scale)
		stages.Resolve = time.Duration(float64(stages.Resolve) * scale)
	}
	if err := src.Err(); err != nil {
		return nil, stats, err
	}
	return tasks[:n], stats, nil
}
