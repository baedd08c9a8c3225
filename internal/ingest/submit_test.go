package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odr/internal/obs"
)

// wedged is a pipeline whose every worker sits inside the processor on
// one wedge item (a negative value) until release, so what is submitted
// afterwards stays queued where the test can see it.
type wedged struct {
	p       *Pipeline[int]
	release func()
	mu      sync.Mutex
	calls   [][]int // every processor call's items, in call order
}

func newWedged(t *testing.T, cfg Config) *wedged {
	t.Helper()
	w := &wedged{}
	gate := make(chan struct{})
	var once sync.Once
	w.release = func() { once.Do(func() { close(gate) }) }
	entered := make(chan struct{}, cfg.Workers)
	w.p = New(cfg, func(batch []int) {
		w.mu.Lock()
		w.calls = append(w.calls, append([]int(nil), batch...))
		w.mu.Unlock()
		if batch[0] < 0 {
			entered <- struct{}{}
			<-gate
		}
	})
	t.Cleanup(func() {
		w.release()
		_ = w.p.Close(context.Background())
	})
	g := w.p.NewGroup()
	for q := 0; q < cfg.Workers; q++ {
		if err := w.p.Submit(g, uint64(q), -1-q); err != nil {
			t.Fatalf("wedge %d: %v", q, err)
		}
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("worker %d never took its wedge", q)
		}
	}
	return w
}

// queued returns each queue's items in queue order. The workers are
// wedged, so the test goroutine is the queues' only reader: it takes
// every run out and puts it back in the same order.
func (w *wedged) queued() [][]int {
	out := make([][]int, len(w.p.queues))
	for q, qu := range w.p.queues {
		for n := len(qu.runs); n > 0; n-- {
			r := <-qu.runs
			out[q] = append(out[q], r.items...)
			qu.runs <- r
		}
	}
	return out
}

// processed releases the workers, closes the pipeline and returns every
// processor call's items.
func (w *wedged) processed(t *testing.T) [][]int {
	t.Helper()
	w.release()
	if err := w.p.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.calls
}

// TestSubmitBatchMatchesSequential is the batched submission's
// differential check: on two identically wedged and pre-filled
// pipelines, one SubmitBatch call and the same items as single Submits
// must accept and reject the same items, with the same errors, and leave
// each queue holding the same items in the same order.
func TestSubmitBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randomKeys := func(n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		return keys
	}
	repeat := func(key uint64, n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = key
		}
		return keys
	}
	cases := []struct {
		name    string
		cfg     Config
		prefill []uint64 // keys Submitted one by one before the call
		keys    []uint64
		close   bool
	}{
		{
			name:    "home full spills to the neighbor",
			cfg:     Config{Workers: 3, QueueDepth: 4, MaxBatch: 2},
			prefill: repeat(0, 4),
			keys:    []uint64{0, 1, 0, 2, 3, 0, 4},
		},
		{
			name:    "both queues fill mid-call",
			cfg:     Config{Workers: 2, QueueDepth: 4, MaxBatch: 3},
			prefill: []uint64{0, 0, 0, 1},
			keys:    append(repeat(0, 6), 1, 0, 1),
		},
		{
			name: "call larger than QueueDepth",
			cfg:  Config{Workers: 3, QueueDepth: 5, MaxBatch: 4},
			keys: randomKeys(40),
		},
		{
			name:    "one queue, call larger than QueueDepth",
			cfg:     Config{Workers: 1, QueueDepth: 8, MaxBatch: 3},
			prefill: repeat(9, 2),
			keys:    randomKeys(12),
		},
		{
			name:    "closed pipeline",
			cfg:     Config{Workers: 2, QueueDepth: 4, MaxBatch: 2},
			prefill: []uint64{1},
			keys:    randomKeys(5),
			close:   true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			items := make([]int, len(tc.keys))
			for i := range items {
				items[i] = 1000 + i
			}
			setup := func() (*wedged, *Group) {
				w := newWedged(t, tc.cfg)
				g := w.p.NewGroup()
				for i, key := range tc.prefill {
					if err := w.p.Submit(g, key, 100+i); err != nil {
						t.Fatalf("prefill %d: %v", i, err)
					}
				}
				if tc.close {
					// The wedged workers keep Close waiting; its
					// cancelled context lets it return once closed.
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					_ = w.p.Close(ctx)
				}
				return w, g
			}

			batched, bg := setup()
			batchErrs := make([]error, len(items))
			accepted := batched.p.SubmitBatch(bg, tc.keys, items, batchErrs)

			single, sg := setup()
			singleErrs := make([]error, len(items))
			for i := range items {
				singleErrs[i] = single.p.Submit(sg, tc.keys[i], items[i])
			}

			want := 0
			for i := range items {
				if batchErrs[i] != singleErrs[i] {
					t.Fatalf("item %d (key %d): SubmitBatch %v, Submit %v", i, tc.keys[i], batchErrs[i], singleErrs[i])
				}
				if singleErrs[i] == nil {
					want++
				}
			}
			if accepted != want {
				t.Fatalf("SubmitBatch accepted %d, its errors say %d", accepted, want)
			}
			if tc.close {
				if accepted != 0 || !errors.Is(batchErrs[0], ErrClosed) {
					t.Fatalf("closed pipeline: accepted %d, first error %v", accepted, batchErrs[0])
				}
				return
			}
			if want == len(items) || want == 0 {
				t.Fatalf("case accepts %d of %d items: it exercises no rejection or no placement", want, len(items))
			}
			got, wantQ := batched.queued(), single.queued()
			if !reflect.DeepEqual(got, wantQ) {
				t.Fatalf("queues after SubmitBatch %v, after Submits %v", got, wantQ)
			}
			for q, items := range got {
				if len(items) > tc.cfg.QueueDepth {
					t.Fatalf("queue %d holds %d items, QueueDepth %d", q, len(items), tc.cfg.QueueDepth)
				}
			}
			if a, b := batched.p.QueueDepth(), single.p.QueueDepth(); a != b {
				t.Fatalf("QueueDepth after SubmitBatch %d, after Submits %d", a, b)
			}

			// Released, every accepted item is processed exactly once
			// and both groups complete.
			for _, w := range []*wedged{batched, single} {
				seen := map[int]int{}
				for _, call := range w.processed(t) {
					for _, v := range call {
						seen[v]++
					}
				}
				for i, v := range items {
					if n := seen[v]; (batchErrs[i] == nil) != (n == 1) || n > 1 {
						t.Fatalf("item %d processed %d times (error %v)", i, n, batchErrs[i])
					}
				}
			}
			for _, g := range []*Group{bg, sg} {
				if err := g.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSubmitBatchSplitsRuns: a run longer than the room left in a
// processor call is split, its tail opening the next call, so no call
// exceeds MaxBatch and the queue's order holds across runs.
func TestSubmitBatchSplitsRuns(t *testing.T) {
	w := newWedged(t, Config{Workers: 1, QueueDepth: 64, MaxBatch: 4})
	var items []int
	submit := func(n int) *Group {
		g := w.p.NewGroup()
		run := make([]int, n)
		for i := range run {
			run[i] = len(items)
			items = append(items, len(items))
		}
		errs := make([]error, n)
		if got := w.p.SubmitBatch(g, make([]uint64, n), run, errs); got != n {
			t.Fatalf("SubmitBatch accepted %d of %d: %v", got, n, errs)
		}
		return g
	}
	g1, g2 := submit(30), submit(5)
	var order []int
	var sizes []int
	for _, call := range w.processed(t)[1:] { // [0] is the wedge
		sizes = append(sizes, len(call))
		order = append(order, call...)
	}
	if !reflect.DeepEqual(order, items) {
		t.Fatalf("processing order %v, want submission order %v", order, items)
	}
	// 30 items fill seven calls and leave 2, which the next run tops up.
	if want := []int{4, 4, 4, 4, 4, 4, 4, 4, 3}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("processor call sizes %v, want %v", sizes, want)
	}
	for _, g := range []*Group{g1, g2} {
		if err := g.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitMetricsCountItems: after batched and single submissions mix,
// the queue-depth reading and gauge, the admitted and rejected totals,
// the batch-size histogram and the latency histogram all count items.
func TestSubmitMetricsCountItems(t *testing.T) {
	reg := obs.NewRegistry()
	w := newWedged(t, Config{Workers: 2, QueueDepth: 8, MaxBatch: 3, Registry: reg})
	g := w.p.NewGroup()
	errs := make([]error, 11)
	keys := []uint64{0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0} // 9 of queue 0's items overflow into queue 1
	accepted := w.p.SubmitBatch(g, keys, make([]int, len(keys)), errs)
	for i := 0; i < 3; i++ {
		if err := w.p.Submit(g, uint64(i), i); err == nil {
			accepted++
		}
	}
	errs = errs[:6]
	accepted += w.p.SubmitBatch(g, []uint64{1, 1, 1, 1, 1, 1}, make([]int, 6), errs)
	rejected := 11 + 3 + 6 - accepted
	if accepted != 16 || rejected != 4 {
		t.Fatalf("accepted %d, rejected %d: want both queues filled (16) and 4 refused", accepted, rejected)
	}
	snap := reg.Snapshot()
	if got := w.p.QueueDepth(); got != accepted {
		t.Fatalf("QueueDepth() = %d, want %d items", got, accepted)
	}
	if got := snap.Gauges[metricQueueDepth]; got != int64(accepted) {
		t.Fatalf("%s = %d, want %d items", metricQueueDepth, got, accepted)
	}
	if got := snap.Counters[obs.Label(metricRejected, "cause", CauseQueueFull)]; got != uint64(rejected) {
		t.Fatalf("rejected{queue_full} = %d, want %d", got, rejected)
	}

	calls := w.processed(t)
	if err := g.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	items := accepted + 2 // the wedges
	if got := snap.Counters[metricAdmitted]; got != uint64(items) {
		t.Fatalf("%s = %d, want %d items", metricAdmitted, got, items)
	}
	if h := snap.Histograms[metricBatchSize]; h.Count != uint64(len(calls)) || h.Sum != uint64(items) {
		t.Fatalf("%s count %d, sum %v; want %d calls, %d items", metricBatchSize, h.Count, h.Sum, len(calls), items)
	}
	for _, call := range calls {
		if len(call) > 3 {
			t.Fatalf("processor call of %d items, MaxBatch 3", len(call))
		}
	}
	if h := snap.Histograms[metricLatency]; h.Count != uint64(items) {
		t.Fatalf("%s count %d, want %d items", metricLatency, h.Count, items)
	}
	if got := snap.Gauges[metricQueueDepth]; got != 0 || w.p.QueueDepth() != 0 {
		t.Fatalf("queue depth after drain: gauge %d, QueueDepth() %d", got, w.p.QueueDepth())
	}
}

// TestGroupCompletesOnce: a group whose items arrive in several runs and
// are finished piece by piece completes exactly once, and Wait honours
// its context while items are still in flight.
func TestGroupCompletesOnce(t *testing.T) {
	w := newWedged(t, Config{Workers: 2, QueueDepth: 32, MaxBatch: 3})
	g := w.p.NewGroup()
	keys := make([]uint64, 20)
	for i := range keys {
		keys[i] = uint64(i % 3)
	}
	errs := make([]error, len(keys))
	if n := w.p.SubmitBatch(g, keys, make([]int, len(keys)), errs); n != len(keys) {
		t.Fatalf("accepted %d of %d", n, len(keys))
	}
	if err := w.p.Submit(g, 0, 7); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait with wedged workers = %v, want deadline exceeded", err)
	}
	w.processed(t)
	select {
	case <-g.done:
	case <-time.After(5 * time.Second):
		t.Fatal("group never completed")
	}
	// Finishing past zero would close done twice and panic; the count
	// rests at zero.
	if got := g.remaining.Load(); got != 0 {
		t.Fatalf("group count after completion = %d, want 0", got)
	}
}

// TestSubmitBatchConcurrentBounds drives SubmitBatch from several
// goroutines against slow workers: no queue ever holds more than
// QueueDepth items, no processor call exceeds MaxBatch, and every
// accepted item is processed exactly once.
func TestSubmitBatchConcurrentBounds(t *testing.T) {
	const depth, maxBatch, submitters, calls, per = 16, 5, 4, 30, 25
	var mu sync.Mutex
	seen := map[int]int{}
	var overBatch atomic.Int64
	p := New(Config{Workers: 3, QueueDepth: depth, MaxBatch: maxBatch}, func(batch []int) {
		if len(batch) > maxBatch {
			overBatch.Store(int64(len(batch)))
		}
		mu.Lock()
		for _, v := range batch {
			seen[v]++
		}
		mu.Unlock()
		time.Sleep(20 * time.Microsecond)
	})
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		var err error
		defer func() { sampled <- err }()
		for {
			for q, qu := range p.queues {
				if n := qu.held.Load(); n > depth && err == nil {
					err = fmt.Errorf("queue %d holds %d items, QueueDepth %d", q, n, depth)
				}
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	var accepted atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for c := 0; c < calls; c++ {
				keys := make([]uint64, per)
				items := make([]int, per)
				for i := range keys {
					keys[i] = rng.Uint64()
					items[i] = (s*calls+c)*per + i
				}
				g := p.NewGroup()
				accepted.Add(int64(p.SubmitBatch(g, keys, items, make([]error, per))))
				if err := g.Wait(context.Background()); err != nil {
					t.Error(err)
				}
			}
		}(s)
	}
	wg.Wait()
	if err := p.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-sampled; err != nil {
		t.Fatal(err)
	}
	if n := overBatch.Load(); n != 0 {
		t.Fatalf("processor call of %d items, MaxBatch %d", n, maxBatch)
	}
	if int64(len(seen)) != accepted.Load() {
		t.Fatalf("processed %d distinct items, accepted %d", len(seen), accepted.Load())
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("item %d processed %d times", v, n)
		}
	}
}
