package replay

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/stats"
	"odr/internal/trace"
	"odr/internal/workload"
)

// TestStreamPoolHygiene is the batch-pool property test: with poison-fill
// armed, every batch returned to a free list is overwritten with garbage
// (negative index, nil user/file) before the reader can reuse it, so any
// code path that wrongly holds onto a cell across release dereferences
// nil or replays a nonsense index instead of silently reading stale data.
// Two replays run interleaved on separate goroutines to stress reuse
// under contention; both must still reproduce their unpoisoned
// single-shard reference byte-for-byte. A tiny chunk maximizes recycle
// churn.
func TestStreamPoolHygiene(t *testing.T) {
	f := setup(t)

	type run struct {
		seed  uint64
		chunk int
		want  string
		got   string
		err   error
	}
	runs := []*run{
		{seed: 14, chunk: 2},
		{seed: 77, chunk: 5},
	}
	for _, r := range runs {
		r.want = digest(RunODR(f.sample, f.trace.Files, f.aps,
			Options{Seed: r.seed, Shards: 1}))
	}
	poisonReleasedBatches = true
	defer func() { poisonReleasedBatches = false }()
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(r *run) {
			defer wg.Done()
			res, err := RunODRStream(workload.NewSliceSource(f.sample),
				f.trace.Files, f.aps,
				Options{Seed: r.seed, Shards: 4, chunk: r.chunk})
			if err != nil {
				r.err = err
				return
			}
			r.got = digest(res)
		}(r)
	}
	wg.Wait()
	for _, r := range runs {
		if r.err != nil {
			t.Fatalf("seed=%d: %v", r.seed, r.err)
		}
		if r.got != r.want {
			t.Errorf("seed=%d: poisoned pooled replay diverged from the unpoisoned reference\nfirst differing line:\n%s",
				r.seed, firstDiff(r.want, r.got))
		}
	}
}

// TestODRResultSummaryMatchesScan pins the memoized accessors to the
// pre-memoization semantics: on a 10k-request replay, every aggregate
// must equal a reference computed by scanning the tasks directly, exactly
// as the accessors did before the summary cache existed.
func TestODRResultSummaryMatchesScan(t *testing.T) {
	f := setup(t)
	const n = 10000
	if len(f.trace.Requests) < n {
		t.Fatalf("trace has %d requests, want %d", len(f.trace.Requests), n)
	}
	sample := f.trace.Requests[:n]
	res := RunODR(sample, f.trace.Files, f.aps, Options{Seed: 31, Shards: 4})
	if len(res.Tasks) != n {
		t.Fatalf("replayed %d of %d tasks", len(res.Tasks), n)
	}

	// Reference scans, straight from the old accessor bodies.
	var impeded, completed, fails int
	var preSum, hpSum time.Duration
	var hpN, unpopFails, unpopTotal, bound, b4 int
	speeds := stats.NewSample(n)
	for i := range res.Tasks {
		tk := &res.Tasks[i]
		speeds.Add(tk.PerceivedRate)
		if tk.B4Exposed {
			b4++
		}
		if tk.Request.File.Band() == workload.BandUnpopular {
			unpopTotal++
			if !tk.Success {
				unpopFails++
			}
		}
		if !tk.Success {
			fails++
			continue
		}
		completed++
		if tk.PerceivedRate < core.HDThreshold {
			impeded++
		}
		preSum += tk.PreDelay
		if tk.StorageBound {
			bound++
		}
		if tk.Request.File.Band() == workload.BandHighlyPopular {
			hpSum += tk.PreDelay
			hpN++
		}
	}
	if completed == 0 || fails == 0 || unpopTotal == 0 || hpN == 0 {
		t.Fatalf("degenerate replay (completed=%d fails=%d unpop=%d hp=%d): the fixture no longer exercises every accessor",
			completed, fails, unpopTotal, hpN)
	}

	checks := []struct {
		name string
		got  float64
		want float64
	}{
		{"ImpededRatio", res.ImpededRatio(), float64(impeded) / float64(completed)},
		{"FailureRatio", res.FailureRatio(), float64(fails) / float64(n)},
		{"MeanPreDelay", float64(res.MeanPreDelay()), float64(preSum / time.Duration(completed))},
		{"MeanPreDelayHighlyPopular", float64(res.MeanPreDelayHighlyPopular()),
			float64(hpSum / time.Duration(hpN))},
		{"UnpopularFailureRatio", res.UnpopularFailureRatio(),
			float64(unpopFails) / float64(unpopTotal)},
		{"StorageBoundRatio", res.StorageBoundRatio(), float64(bound) / float64(completed)},
		{"B4ExposedRatio", res.B4ExposedRatio(), float64(b4) / float64(n)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v (memoized accessor diverged from task scan)", c.name, c.got, c.want)
		}
	}

	// The memoized MeanPreDelayIf escape hatch still scans; identity keep
	// must agree with the memoized MeanPreDelay.
	if got := res.MeanPreDelayIf(func(*ODRTask) bool { return true }); got != res.MeanPreDelay() {
		t.Errorf("MeanPreDelayIf(true) = %v, MeanPreDelay = %v", got, res.MeanPreDelay())
	}

	// FetchSpeeds: same observations, same order-insensitive quantiles,
	// and the memoized sample is shared across calls.
	got := res.FetchSpeeds()
	if got.N() != speeds.N() {
		t.Fatalf("FetchSpeeds N = %d, want %d", got.N(), speeds.N())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if got.Quantile(q) != speeds.Quantile(q) {
			t.Errorf("FetchSpeeds quantile %v = %v, want %v", q, got.Quantile(q), speeds.Quantile(q))
		}
	}
	if res.FetchSpeeds() != got {
		t.Error("FetchSpeeds rebuilt the sample instead of memoizing it")
	}
}

// TestStreamSizerPresizing sanity-checks the Sizer plumbing end to end: a
// sized source (tasks written in place) replays identically to an unsized
// wrapper of the same stream (per-shard buffers, scattered afterwards).
func TestStreamSizerPresizing(t *testing.T) {
	f := setup(t)
	sized, err := RunODRStream(workload.NewSliceSource(f.sample), f.trace.Files,
		f.aps, Options{Seed: 14, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	unsized, err := RunODRStream(&hideSizer{src: workload.NewSliceSource(f.sample)},
		f.trace.Files, f.aps, Options{Seed: 14, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if digest(sized) != digest(unsized) {
		t.Fatalf("sized vs unsized source diverged\nfirst differing line:\n%s",
			firstDiff(digest(sized), digest(unsized)))
	}
}

// hideSizer strips the Sizer extension off a source.
type hideSizer struct {
	src workload.RequestSource
}

func (s *hideSizer) Next() (int, workload.Request, bool) { return s.src.Next() }
func (s *hideSizer) Err() error                          { return s.src.Err() }

// announce wraps a source with a Sizer that reports n, true or not.
type announce struct {
	hideSizer
	n int
}

func (s *announce) TotalRequests() int { return s.n }

// TestSizerAnnouncementIsBinding: the engine allocates the result from
// TotalRequests and writes tasks in place, so the count is a contract.
// Yielding past it fails the run with both numbers in the error; yielding
// short of it returns exactly the tasks yielded, identical to an honest
// run over the same prefix.
func TestSizerAnnouncementIsBinding(t *testing.T) {
	f := setup(t)
	opts := Options{Seed: 14, Shards: 4, chunk: 16}
	run := func(reqs []workload.Request, announced int) (*ODRResult, error) {
		src := &announce{hideSizer{workload.NewSliceSource(reqs)}, announced}
		return RunODRStream(src, f.trace.Files, f.aps, opts)
	}

	_, err := run(f.sample[:300], 200)
	if err == nil {
		t.Fatal("a source that yielded 300 requests after announcing 200 replayed without error")
	}
	for _, want := range []string{"announced 200", "201"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	short, err := run(f.sample[:300], 450)
	if err != nil {
		t.Fatal(err)
	}
	if len(short.Tasks) != 300 {
		t.Fatalf("announced 450, yielded 300: got %d tasks", len(short.Tasks))
	}
	honest, err := run(f.sample[:300], 300)
	if err != nil {
		t.Fatal(err)
	}
	if digest(short) != digest(honest) {
		t.Fatalf("over-announced run diverged from the honest one\nfirst differing line:\n%s",
			firstDiff(digest(honest), digest(short)))
	}
}

// sizerSpy delegates to a sized source and counts Sizer consultations.
type sizerSpy struct {
	src   workload.RequestSource
	sz    workload.Sizer
	calls int
}

func (s *sizerSpy) Next() (int, workload.Request, bool) { return s.src.Next() }
func (s *sizerSpy) Err() error                          { return s.src.Err() }
func (s *sizerSpy) TotalRequests() int                  { s.calls++; return s.sz.TotalRequests() }

// TestTraceFedRunsPresize closes the Sizer loop for trace files: a bin
// trace opened from a seekable reader advertises its record count from
// the trailer, and the engine consults that hint, so replays fed straight
// from a trace file pre-size their shard buffers exactly like slice-fed
// ones.
func TestTraceFedRunsPresize(t *testing.T) {
	f := setup(t)
	msSample := append([]workload.Request(nil), f.sample...)
	for i := range msSample {
		msSample[i].Time = msSample[i].Time.Truncate(time.Millisecond)
	}
	var buf bytes.Buffer
	if err := trace.WriteWorkloadStream(&buf, "bin", workload.NewSliceSource(msSample)); err != nil {
		t.Fatal(err)
	}
	src, err := trace.StreamWorkload(bytes.NewReader(buf.Bytes()), "bin")
	if err != nil {
		t.Fatal(err)
	}
	sz, ok := src.(workload.Sizer)
	if !ok {
		t.Fatal("seekable bin trace source does not implement workload.Sizer")
	}
	if got := sz.TotalRequests(); got != len(msSample) {
		t.Fatalf("bin trailer count = %d, want %d", got, len(msSample))
	}
	spy := &sizerSpy{src: src, sz: sz}
	got, err := RunODRStream(spy, f.trace.Files, f.aps, Options{Seed: 14, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if spy.calls == 0 {
		t.Fatal("engine never consulted the trace source's Sizer — trace-fed run missed the pre-sized path")
	}
	want := digest(RunODR(msSample, f.trace.Files, f.aps, Options{Seed: 14, Shards: 4}))
	if d := digest(got); d != want {
		t.Fatalf("trace-fed pre-sized replay diverged from the in-memory reference\nfirst differing line:\n%s",
			firstDiff(want, d))
	}
}
