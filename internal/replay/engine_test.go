package replay

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"odr/internal/backend"
	"odr/internal/cloud"
	"odr/internal/dist"
	"odr/internal/obs"
	"odr/internal/trace"
	"odr/internal/workload"
)

// digest is shorthand for the production determinism oracle,
// ODRResult.Digest — the tests predate the method and read better short.
func digest(r *ODRResult) string { return r.Digest() }

func apDigest(r *APBench) string {
	var b strings.Builder
	for i := range r.Tasks {
		t := &r.Tasks[i]
		fmt.Fprintf(&b, "%d|%s|%v|%q|%x|%d|%x|%x|%v|%v\n",
			i, t.APName, t.Result.Success, t.Result.Cause,
			math.Float64bits(t.Result.Rate), t.Result.Delay,
			math.Float64bits(t.Result.Traffic), math.Float64bits(t.Result.IOWait),
			t.Result.StorageBound, t.B4Exposed)
	}
	tot := r.Engine.Totals()
	fmt.Fprintf(&b, "totals|%d|%d\n", tot.Tasks, tot.Failures)
	return b.String()
}

// outcomeSnapshot snapshots a run's registry minus the in-flight peak
// gauge: it depends on goroutine scheduling, so it is not a replay outcome
// and is exempt from the determinism contract (DESIGN.md,
// "Observability"). Every registry comparison goes through here.
func outcomeSnapshot(reg *obs.Registry) *obs.Snapshot {
	snap := reg.Snapshot()
	delete(snap.Gauges, MetricInflightPeak)
	return snap
}

// TestReplayDeterminism is the engine's core guarantee: byte-identical
// replay metrics for every shard count, at any GOMAXPROCS (run it with
// -cpu 1,2,8 — the single-shard reference is scheduling-free, so equality
// at each GOMAXPROCS proves invariance across all of them). What that
// reference itself must produce is pinned by TestReplayGolden.
func TestReplayDeterminism(t *testing.T) {
	f := setup(t)
	ref := RunODR(f.sample, f.trace.Files, f.aps, Options{Seed: 14, Shards: 1})
	want := digest(ref)
	for _, shards := range []int{2, 8, 0} {
		got := RunODR(f.sample, f.trace.Files, f.aps, Options{Seed: 14, Shards: shards})
		if got.Engine.Shards < 1 {
			t.Fatalf("shards=%d: engine reported %d shards", shards, got.Engine.Shards)
		}
		if d := digest(got); d != want {
			t.Fatalf("shards=%d: replay diverged from the single-shard reference\nfirst differing line:\n%s",
				shards, firstDiff(want, d))
		}
	}

	// The AP benchmark shards at GOMAXPROCS from its slice entry; every
	// explicit shard count must reproduce it.
	apWant := apDigest(RunAPBenchmark(f.sample, f.aps, 14))
	for _, shards := range []int{1, 4, 8} {
		got, err := RunAPBenchmarkStream(workload.NewSliceSource(f.sample), f.aps, 14, shards)
		if err != nil {
			t.Fatalf("AP shards=%d: %v", shards, err)
		}
		if d := apDigest(got); d != apWant {
			t.Fatalf("AP shards=%d: diverged from the GOMAXPROCS run\nfirst differing line:\n%s",
				shards, firstDiff(apWant, d))
		}
	}

	// The transport's batch size must be invisible in the output: any
	// chunk reproduces the reference byte-for-byte.
	for _, chunk := range []int{1, 3, 7, 4096} {
		got := RunODR(f.sample, f.trace.Files, f.aps,
			Options{Seed: 14, Shards: 4, chunk: chunk})
		if d := digest(got); d != want {
			t.Fatalf("chunk=%d: tuned replay diverged from the reference\nfirst differing line:\n%s",
				chunk, firstDiff(want, d))
		}
	}

	// Metrics must be pure observation. Instrumented replays produce
	// byte-identical digests (metrics on/off), and the merged per-shard
	// registries are identical for every shard count — minus the
	// in-flight peak gauge, which lives in the destination registry, never
	// in a shard's (see outcomeSnapshot).
	refReg := obs.NewRegistry()
	instr := RunODR(f.sample, f.trace.Files, f.aps,
		Options{Seed: 14, Shards: 1, Metrics: refReg})
	if d := digest(instr); d != want {
		t.Fatalf("metrics=on shards=1: instrumentation changed the replay\nfirst differing line:\n%s",
			firstDiff(want, d))
	}
	wantSnap := outcomeSnapshot(refReg)
	if len(wantSnap.Counters) == 0 || len(wantSnap.Histograms) == 0 {
		t.Fatal("instrumented replay recorded no metrics")
	}
	if _, ok := wantSnap.Counters[MetricReplayTasks]; !ok {
		t.Fatalf("missing %s in instrumented snapshot", MetricReplayTasks)
	}
	for _, shards := range []int{4, 8} {
		reg := obs.NewRegistry()
		got := RunODR(f.sample, f.trace.Files, f.aps,
			Options{Seed: 14, Shards: shards, Metrics: reg})
		if d := digest(got); d != want {
			t.Fatalf("metrics=on shards=%d: instrumentation changed the replay\nfirst differing line:\n%s",
				shards, firstDiff(want, d))
		}
		gauges := reg.Snapshot().Gauges
		if _, ok := gauges[MetricInflightPeak]; !ok {
			t.Fatalf("shards=%d: in-flight peak gauge never recorded", shards)
		}
		if snap := outcomeSnapshot(reg); !reflect.DeepEqual(snap, wantSnap) {
			t.Fatalf("metrics shards=%d: merged registry differs from the single-shard registry\nfirst differing line:\n%s",
				shards, firstDiff(snapJSON(t, wantSnap), snapJSON(t, snap)))
		}
	}

	// Policy axis: under every cache policy — with the pool squeezed so
	// eviction actually runs — the replay must stay byte-identical across
	// shard counts and transport tuning. The pool evolves only in the
	// sequential observation pass and each request's verdict is latched
	// there, so worker scheduling cannot leak in.
	pressure := fixturePopBytes(f) / 12
	for _, policy := range cloud.PolicyNames() {
		base := Options{Seed: 14, Shards: 1, CachePolicy: policy, PoolBytes: pressure}
		pRef := RunODR(f.sample, f.trace.Files, f.aps, base)
		if ev := pRef.Backends.Cloud.PoolStats().Evictions; ev == 0 {
			t.Fatalf("policy=%s: no evictions — the policy axis is not under capacity pressure", policy)
		}
		pWant := digest(pRef)
		for _, shards := range []int{4, 8} {
			opts := base
			opts.Shards = shards
			if d := digest(RunODR(f.sample, f.trace.Files, f.aps, opts)); d != pWant {
				t.Fatalf("policy=%s shards=%d: diverged from the single-shard reference\nfirst differing line:\n%s",
					policy, shards, firstDiff(pWant, d))
			}
		}
		tuned := base
		tuned.Shards = 4
		tuned.chunk = 3
		if d := digest(RunODR(f.sample, f.trace.Files, f.aps, tuned)); d != pWant {
			t.Fatalf("policy=%s chunk=3: diverged from the single-shard reference\nfirst differing line:\n%s",
				policy, firstDiff(pWant, d))
		}

		// Policy equivalence: at unbounded capacity no policy can evict,
		// so every dynamic replay must reproduce the static no-eviction
		// reference byte-for-byte — placement can only matter under
		// capacity pressure.
		unbounded := Options{Seed: 14, Shards: 4, CachePolicy: policy, PoolBytes: 1 << 50}
		ub := RunODR(f.sample, f.trace.Files, f.aps, unbounded)
		if st := ub.Backends.Cloud.PoolStats(); st.Evictions != 0 {
			t.Fatalf("policy=%s: unbounded pool evicted %d files", policy, st.Evictions)
		}
		if d := digest(ub); d != want {
			t.Fatalf("policy=%s: unbounded-capacity replay diverged from the static reference\nfirst differing line:\n%s",
				policy, firstDiff(want, d))
		}
	}

	// Pool metrics obey the shard-merge contract: the post-run snapshot
	// is a pure function of the request sequence, so the merged registry
	// (pool series included) is identical for every shard count.
	polRef := obs.NewRegistry()
	polOpts := Options{Seed: 14, Shards: 1, CachePolicy: "band", PoolBytes: pressure, Metrics: polRef}
	if d := digest(RunODR(f.sample, f.trace.Files, f.aps, polOpts)); d == want {
		t.Fatal("pressured band replay unexpectedly matches the static reference")
	}
	polSnap := outcomeSnapshot(polRef)
	if _, ok := polSnap.Counters[obs.Label(MetricPoolHits, "policy", "band")]; !ok {
		t.Fatalf("missing %s in instrumented policy snapshot", MetricPoolHits)
	}
	if _, ok := polSnap.Gauges[MetricPoolUsedBytes]; !ok {
		t.Fatalf("missing %s in instrumented policy snapshot", MetricPoolUsedBytes)
	}
	for _, shards := range []int{4, 8} {
		reg := obs.NewRegistry()
		opts := polOpts
		opts.Shards = shards
		opts.Metrics = reg
		RunODR(f.sample, f.trace.Files, f.aps, opts)
		if snap := outcomeSnapshot(reg); !reflect.DeepEqual(snap, polSnap) {
			t.Fatalf("policy metrics shards=%d: merged registry differs\nfirst differing line:\n%s",
				shards, firstDiff(snapJSON(t, polSnap), snapJSON(t, snap)))
		}
	}

	// Generation-worker axis: the parallel pipelined generator
	// (StreamTrace.RequestsWorkers) must be invisible — a replay fed by N-worker generation reproduces the
	// sequential-generation reference byte-for-byte at every shard count.
	st, err := workload.GenerateStream(workload.DefaultConfig(400, 515151), 256)
	if err != nil {
		t.Fatal(err)
	}
	genRef, err := RunODRStream(st.Requests(), st.Files, f.aps, Options{Seed: 14, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	genWant := digest(genRef)
	for _, workers := range []int{2, 4, 0} {
		for _, shards := range []int{1, 4} {
			got, err := RunODRStream(st.RequestsWorkers(workers), st.Files, f.aps,
				Options{Seed: 14, Shards: shards})
			if err != nil {
				t.Fatalf("gen workers=%d shards=%d: %v", workers, shards, err)
			}
			if d := digest(got); d != genWant {
				t.Fatalf("gen workers=%d shards=%d: parallel generation changed the replay\nfirst differing line:\n%s",
					workers, shards, firstDiff(genWant, d))
			}
		}
	}

	// Trace-file axis: replaying from a written trace must match replaying
	// the same requests from memory, decoded identities and all. Times are
	// truncated to the millisecond precision every trace format stores, so
	// the in-memory reference sees exactly what a file reader decodes.
	// Only bin is lossless (it keeps the modeled bandwidth of users who
	// don't report one), so only bin can feed a full-stream replay.
	msReqs, err := workload.Collect(st.Requests())
	if err != nil {
		t.Fatal(err)
	}
	for i := range msReqs {
		msReqs[i].Time = msReqs[i].Time.Truncate(time.Millisecond)
	}
	fileWant := digest(RunODR(msReqs, st.Files, f.aps, Options{Seed: 14, Shards: 1}))
	var binBuf bytes.Buffer
	if err := trace.WriteWorkloadStream(&binBuf, "bin", workload.NewSliceSource(msReqs)); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		src, err := trace.StreamWorkload(bytes.NewReader(binBuf.Bytes()), "bin")
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunODRStream(src, st.Files, f.aps, Options{Seed: 14, Shards: shards})
		if err != nil {
			t.Fatalf("trace bin shards=%d: %v", shards, err)
		}
		if d := digest(got); d != fileWant {
			t.Fatalf("trace bin shards=%d: trace-fed replay diverged from the in-memory reference\nfirst differing line:\n%s",
				shards, firstDiff(fileWant, d))
		}
	}

	// csv/jsonl drop unreported bandwidth by design, so they feed the
	// sampled flow cmd/replay uses: filter to reporting Unicom users,
	// sample, replay. The sample drawn from a decoded trace must equal
	// the sample drawn from memory, and so must the replay.
	refSample, err := workload.UnicomSampleSource(workload.NewSliceSource(msReqs), 200, 515151)
	if err != nil {
		t.Fatal(err)
	}
	sampleRef, err := RunODRStream(workload.NewSliceSource(refSample), st.Files, f.aps,
		Options{Seed: 14, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sampleWant := digest(sampleRef)
	for _, format := range []string{"csv", "jsonl"} {
		var buf bytes.Buffer
		if err := trace.WriteWorkloadStream(&buf, format, workload.NewSliceSource(msReqs)); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		for _, shards := range []int{1, 4} {
			src, err := trace.StreamWorkload(bytes.NewReader(buf.Bytes()), format)
			if err != nil {
				t.Fatalf("%s: %v", format, err)
			}
			sample, err := workload.UnicomSampleSource(src, 200, 515151)
			if err != nil {
				t.Fatalf("%s: %v", format, err)
			}
			got, err := RunODRStream(workload.NewSliceSource(sample), st.Files, f.aps,
				Options{Seed: 14, Shards: shards})
			if err != nil {
				t.Fatalf("trace %s shards=%d: %v", format, shards, err)
			}
			if d := digest(got); d != sampleWant {
				t.Fatalf("trace %s shards=%d: sampled trace-fed replay diverged from the in-memory reference\nfirst differing line:\n%s",
					format, shards, firstDiff(sampleWant, d))
			}
		}
	}

	// The baselines and the AP benchmark shard at GOMAXPROCS; two runs
	// must still match exactly.
	if digest(HybridBaseline(f.sample, f.trace.Files, f.aps, 14)) !=
		digest(HybridBaseline(f.sample, f.trace.Files, f.aps, 14)) {
		t.Fatal("hybrid baseline not deterministic")
	}
	if digest(CloudOnlyBaseline(f.sample, f.trace.Files, 14)) !=
		digest(CloudOnlyBaseline(f.sample, f.trace.Files, 14)) {
		t.Fatal("cloud-only baseline not deterministic")
	}
	if apDigest(RunAPBenchmark(f.sample, f.aps, 14)) !=
		apDigest(RunAPBenchmark(f.sample, f.aps, 14)) {
		t.Fatal("AP benchmark not deterministic")
	}
}

// snapJSON renders a snapshot deterministically for diffing.
func snapJSON(t *testing.T, s *obs.Snapshot) string {
	t.Helper()
	var b strings.Builder
	if err := obs.WriteJSON(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("want %s\n got %s", al[i], bl[i])
		}
	}
	return "length mismatch"
}

// TestEngineShardTotals checks the shard partition is exhaustive and
// disjoint: per-shard totals sum to the sample size for any shard count.
func TestEngineShardTotals(t *testing.T) {
	f := setup(t)
	for _, shards := range []int{1, 3, 7, 64, 5000} {
		res := RunODR(f.sample, f.trace.Files, f.aps, Options{Seed: 9, Shards: shards})
		if res.Engine.Shards > len(f.sample) {
			t.Errorf("shards=%d: engine used %d shards for %d requests",
				shards, res.Engine.Shards, len(f.sample))
		}
		tot := res.Engine.Totals()
		if tot.Tasks != int64(len(f.sample)) {
			t.Errorf("shards=%d: per-shard totals cover %d of %d requests",
				shards, tot.Tasks, len(f.sample))
		}
		var fails int64
		for i := range res.Tasks {
			if !res.Tasks[i].Success {
				fails++
			}
		}
		if tot.Failures != fails {
			t.Errorf("shards=%d: shard failure totals %d, tasks say %d",
				shards, tot.Failures, fails)
		}
	}
}

// faultySource yields the first n requests of a slice, then fails.
type faultySource struct {
	reqs []workload.Request
	n    int
	pos  int
	err  error
}

func (s *faultySource) Next() (int, workload.Request, bool) {
	if s.pos >= s.n {
		return 0, workload.Request{}, false
	}
	i := s.pos
	s.pos++
	return i, s.reqs[i], true
}

func (s *faultySource) Err() error {
	if s.pos >= s.n {
		return s.err
	}
	return nil
}

// TestStreamErrorPropagation: a source that fails mid-stream must surface
// its error from the streaming entry points, with the engine's workers
// shut down cleanly (run under -race to prove it).
func TestStreamErrorPropagation(t *testing.T) {
	f := setup(t)
	wantErr := fmt.Errorf("disk on fire")
	src := &faultySource{reqs: f.sample, n: 100, err: wantErr}
	res, err := RunODRStream(src, f.trace.Files, f.aps, Options{Seed: 14, Shards: 4})
	if err == nil || !strings.Contains(err.Error(), wantErr.Error()) {
		t.Fatalf("RunODRStream error = %v, want %v", err, wantErr)
	}
	if res != nil {
		t.Fatal("failed stream replay returned a result")
	}
	apRes, err := RunAPBenchmarkStream(&faultySource{reqs: f.sample, n: 100, err: wantErr},
		f.aps, 14, 4)
	if err == nil || !strings.Contains(err.Error(), wantErr.Error()) {
		t.Fatalf("RunAPBenchmarkStream error = %v, want %v", err, wantErr)
	}
	if apRes != nil {
		t.Fatal("failed AP stream replay returned a result")
	}
}

// outOfOrderSource violates the RequestSource index contract.
type outOfOrderSource struct {
	reqs []workload.Request
	pos  int
}

func (s *outOfOrderSource) Next() (int, workload.Request, bool) {
	if s.pos >= len(s.reqs) {
		return 0, workload.Request{}, false
	}
	i := s.pos
	s.pos++
	if i == 5 {
		return 17, s.reqs[i], true // lies about its index
	}
	return i, s.reqs[i], true
}

func (s *outOfOrderSource) Err() error { return nil }

// TestStreamIndexContract: the engine rejects sources that break the
// global-index-order contract instead of silently misattributing RNG
// substreams.
func TestStreamIndexContract(t *testing.T) {
	f := setup(t)
	_, err := RunODRStream(&outOfOrderSource{reqs: f.sample[:20]}, f.trace.Files,
		f.aps, Options{Seed: 14, Shards: 2})
	if err == nil || !strings.Contains(err.Error(), "index") {
		t.Fatalf("out-of-order source not rejected: %v", err)
	}
}

// TestEngineRequestStreams pins the per-request RNG keying: the engine
// must hand request i the substream Split64(i) of the engine root, so a
// backend replaying index i outside the engine sees the same draws
// regardless of sharding. The request object is pooled per shard worker
// and rebound between calls, so the test snapshots everything it checks
// inside the callback — exactly the contract real task functions live by.
func TestEngineRequestStreams(t *testing.T) {
	f := setup(t)
	const n, seed = 16, 7
	sample := f.sample[:n]
	type reqSnap struct {
		index  int
		user   *workload.User
		file   *workload.FileMeta
		ap     bool
		envCap float64
		draws  [4]float64
	}
	got := make([]*reqSnap, n)
	_, _, err := runShardedStream(workload.NewSliceSource(sample), f.aps, seed, 0, 4, 3,
		nil, nil, nil, everyShard(
			func(i int, _ workload.Request, req *backend.Request, _ *struct{}) bool {
				s := &reqSnap{index: req.Index, user: req.User, file: req.File,
					ap: req.AP == f.aps[i%len(f.aps)], envCap: req.EnvCap}
				for d := range s.draws {
					s.draws[d] = req.RNG.Float64()
				}
				got[i] = s
				return true
			}))
	if err != nil {
		t.Fatal(err)
	}
	root := dist.NewRNG(seed).Split("replay-engine")
	for i := 0; i < n; i++ {
		req := got[i]
		if req == nil {
			t.Fatalf("request %d never ran", i)
		}
		if req.index != i || req.user != sample[i].User || req.file != sample[i].File {
			t.Fatalf("request %d carries the wrong sample entry", i)
		}
		if !req.ap {
			t.Fatalf("request %d lost its round-robin AP", i)
		}
		if req.envCap != EnvCap {
			t.Fatalf("request %d has EnvCap %g", i, req.envCap)
		}
		want := root.Split64(uint64(i))
		for d := 0; d < 4; d++ {
			if req.draws[d] != want.Float64() {
				t.Fatalf("request %d: RNG is not the index-keyed substream", i)
			}
		}
	}
}

// TestReaderStages: a run with a registry times its reader's stages — one
// record in readerSample for decode and resolve, every batch hand-off for
// dispatch — keeps them out of that registry, and PublishReaderStages
// puts them in another; a run without a registry leaves them zero.
func TestReaderStages(t *testing.T) {
	f := setup(t)
	if res := RunODR(f.sample, f.trace.Files, f.aps, Options{Seed: 14, Shards: 2}); res.Engine.Reader != (ReaderStages{}) {
		t.Fatalf("an unobserved run timed its reader: %+v", res.Engine.Reader)
	}
	reg := obs.NewRegistry()
	res := RunODR(f.sample, f.trace.Files, f.aps, Options{Seed: 14, Shards: 2, Metrics: reg})
	st := res.Engine.Reader
	if want := (len(f.sample) + readerSample - 1) / readerSample; st.Sampled != want {
		t.Fatalf("timed %d records of %d, want %d", st.Sampled, len(f.sample), want)
	}
	if st.Decode+st.Resolve <= 0 || st.Decode < 0 || st.Resolve < 0 || st.Dispatch < 0 {
		t.Fatalf("reader stages %+v", st)
	}
	stages := []string{"decode", "resolve", "dispatch"}
	for _, s := range stages {
		if _, ok := reg.Snapshot().Gauges[obs.Label(MetricReaderStage, "stage", s)]; ok {
			t.Fatalf("the run recorded its %s time into its own registry", s)
		}
	}
	pub := obs.NewRegistry()
	PublishReaderStages(pub, res.Engine)
	for _, s := range stages {
		if _, ok := pub.Snapshot().Gauges[obs.Label(MetricReaderStage, "stage", s)]; !ok {
			t.Fatalf("PublishReaderStages set no %s gauge", s)
		}
	}
	PublishReaderStages(nil, res.Engine) // nil-safe
}
