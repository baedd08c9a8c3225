package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"odr/internal/backend"
	"odr/internal/cloud"
	"odr/internal/core"
	"odr/internal/dist"
	"odr/internal/distrib"
	"odr/internal/faults"
	"odr/internal/ingest"
	"odr/internal/obs"
	"odr/internal/ratelimit"
	"odr/internal/replay"
	"odr/internal/smartap"
	"odr/internal/trace"
	"odr/internal/workload"
)

// The ledger is the traced run's second half: every layer's public
// operations in a loop of their own, on one small trace generated from
// the run's seed, so that a change to one layer has a number that moves
// even where the end-to-end workloads hide it behind everything else. It
// runs the same whichever workload is being traced — unit costs do not
// belong to a workload — and each number's name starts with the package
// it measures. None of it touches internal/: the loops call what any
// importer could call.

type ledger struct {
	e   *env
	out map[string]float64
	dir string

	path     string             // the ledger trace as a bin file
	reqs     []workload.Request // the file's records, decoded
	files    []*workload.FileMeta
	popBytes int64
	aps      []*smartap.AP
}

// perOp returns the mean nanoseconds one call of fn takes over n calls.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// seconds returns how long fn takes.
func seconds(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// drain pulls a source dry and returns the record count.
func drain(src workload.RequestSource) (int, error) {
	n := 0
	for {
		if _, _, ok := src.Next(); !ok {
			return n, src.Err()
		}
		n++
	}
}

// sumCounters adds every counter whose name starts with prefix (one
// series per label set).
func sumCounters(s *obs.Snapshot, prefix string) float64 {
	var t float64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			t += float64(v)
		}
	}
	return t
}

// runLedger measures every layer and returns name → value.
func runLedger(ctx context.Context, e *env) (map[string]float64, error) {
	l := &ledger{e: e, out: map[string]float64{}, dir: filepath.Join(e.dir, "ledger"), aps: smartap.Benchmarked()}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(l.dir)
	for _, layer := range []func(context.Context) error{
		l.workloadLayer, l.traceLayer, l.coreLayer, l.cloudLayer, l.backendLayer,
		l.obsLayer, l.replayLayer, l.distribLayer, l.ingestLayer, l.odrwebLayer,
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := layer(ctx); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// workloadLayer plans and generates the ledger trace, and leaves it on
// disk and in memory for the layers after it.
func (l *ledger) workloadLayer(context.Context) error {
	start := time.Now()
	st, err := workload.GenerateStream(workload.DefaultConfig(l.e.sc.LedgerFiles, l.e.seed), workload.DefaultStreamChunk)
	if err != nil {
		return err
	}
	l.out["workload.plan_s"] = time.Since(start).Seconds()
	n := st.TotalRequests()
	gen := func(workers int) (float64, error) {
		s, err := seconds(func() error {
			got, err := drain(st.RequestsWorkers(workers))
			if err == nil && got != n {
				err = fmt.Errorf("ledger: %d-worker generation yielded %d of %d records", workers, got, n)
			}
			return err
		})
		return float64(n) / s, err
	}
	w1, err := gen(1)
	if err != nil {
		return err
	}
	wP, err := gen(l.e.P)
	if err != nil {
		return err
	}
	l.out["workload.gen_rec_per_s.w1"] = w1
	l.out["workload.gen_rec_per_s.wP"] = wP
	l.out["workload.gen_scaling"] = wP / w1

	l.path = filepath.Join(l.dir, "ledger.bin")
	if err := writeBin(l.path, st.Requests()); err != nil {
		return err
	}
	src, closer, err := trace.OpenWorkloadBinWindow(l.path, 0, -1)
	if err != nil {
		return err
	}
	defer closer.Close()
	if l.reqs, err = workload.Collect(src); err != nil {
		return err
	}

	census := workload.NewCensus()
	s, err := seconds(func() error {
		_, err := drain(census.Wrap(workload.NewSliceSource(l.reqs)))
		return err
	})
	if err != nil {
		return err
	}
	l.out["workload.census_rec_per_s"] = float64(len(l.reqs)) / s
	l.files = census.Files()
	for _, f := range l.files {
		l.popBytes += f.Size
	}
	return nil
}

// traceLayer times each codec over memory, so the numbers are the
// codec's and not the disk's, and window opening over the file.
func (l *ledger) traceLayer(context.Context) error {
	n := float64(len(l.reqs))
	slice := func() workload.RequestSource { return workload.NewSliceSource(l.reqs) }
	rate := func(name string, fn func() error) error {
		s, err := seconds(fn)
		l.out[name] = n / s
		return err
	}
	decode := func(open func() (workload.RequestSource, error)) func() error {
		return func() error {
			src, err := open()
			if err != nil {
				return err
			}
			got, err := drain(src)
			if err == nil && got != len(l.reqs) {
				err = fmt.Errorf("ledger: decoded %d of %d records", got, len(l.reqs))
			}
			return err
		}
	}

	var bin, csv, jsonl bytes.Buffer
	if err := rate("trace.bin_encode_rec_per_s", func() error { return trace.WriteWorkloadBinStream(&bin, slice()) }); err != nil {
		return err
	}
	l.out["trace.bin_bytes_per_rec"] = float64(bin.Len()) / n
	if err := rate("trace.bin_decode_rec_per_s", decode(func() (workload.RequestSource, error) {
		return trace.StreamWorkloadBin(bytes.NewReader(bin.Bytes()))
	})); err != nil {
		return err
	}
	if err := rate("trace.csv_encode_rec_per_s", func() error { return trace.WriteWorkloadCSVStream(&csv, slice()) }); err != nil {
		return err
	}
	if err := rate("trace.csv_decode_rec_per_s", decode(func() (workload.RequestSource, error) {
		return trace.StreamWorkloadCSV(bytes.NewReader(csv.Bytes()))
	})); err != nil {
		return err
	}
	if err := trace.WriteWorkloadJSONLStream(&jsonl, slice()); err != nil {
		return err
	}
	if err := rate("trace.jsonl_decode_rec_per_s", decode(func() (workload.RequestSource, error) {
		return trace.StreamWorkloadJSONL(bytes.NewReader(jsonl.Bytes())), nil
	})); err != nil {
		return err
	}
	if err := rate("trace.hash_rec_per_s", func() error {
		_, _, err := trace.HashWorkload(slice())
		return err
	}); err != nil {
		return err
	}

	// Opening a window means seeking past whole chunks to its first
	// record; the cost a coordinator worker pays before it can start.
	open := func(offset int64) (float64, error) {
		const repeats = 20
		s, err := seconds(func() error {
			for i := 0; i < repeats; i++ {
				src, closer, err := trace.OpenWorkloadBinWindow(l.path, offset, 1024)
				if err != nil {
					return err
				}
				_, _, ok := src.Next()
				closer.Close()
				if !ok {
					return fmt.Errorf("ledger: window at %d is empty: %v", offset, src.Err())
				}
			}
			return nil
		})
		return s / repeats * 1000, err
	}
	var err error
	if l.out["trace.window_open_ms.off0"], err = open(0); err != nil {
		return err
	}
	l.out["trace.window_open_ms.off75"], err = open(int64(len(l.reqs)) * 3 / 4)
	return err
}

// decideInput builds the input the replay engine would build for record
// i, with the cache verdict supplied.
func (l *ledger) decideInput(i int, cached bool) core.Input {
	r := l.reqs[i%len(l.reqs)]
	ap := l.aps[i%len(l.aps)]
	return core.Input{
		Protocol:  r.File.Protocol,
		Band:      r.File.Band(),
		Cached:    cached,
		ISP:       r.User.ISP,
		AccessBW:  r.User.AccessBW,
		HasAP:     true,
		APStorage: ap.Device(),
		APCPUGHz:  ap.Spec().CPUGHz,
	}
}

var sinkRoute core.Route // keeps the decision loops' results alive

// coreLayer times the decision procedure over the trace's own inputs.
func (l *ledger) coreLayer(context.Context) error {
	ops := l.e.sc.LedgerOps
	inputs := make([]core.Input, len(l.reqs))
	decs := make([]core.Decision, len(l.reqs))
	for i := range inputs {
		inputs[i] = l.decideInput(i, i%3 != 0)
		decs[i] = core.Decide(inputs[i])
	}
	l.out["core.decide_ns"] = perOp(ops, func(i int) {
		sinkRoute = core.Decide(inputs[i%len(inputs)]).Route
	})
	l.out["core.fallback_ns"] = perOp(ops, func(i int) {
		k := i % len(inputs)
		d, _, _ := core.Fallback(inputs[k], decs[k])
		sinkRoute = d.Route
	})
	pool := cloud.NewStoragePoolSized(cloud.FullPoolBytes, len(l.files))
	for i, f := range l.files {
		if i%3 != 0 {
			pool.AddMeta(f)
		}
	}
	adv := &core.Advisor{DB: core.NewStaticDB(l.files), Cache: pool}
	apInfo := &core.APInfo{Storage: l.aps[0].Device(), CPUGHz: l.aps[0].Spec().CPUGHz}
	l.out["core.advise_ns"] = perOp(ops, func(i int) {
		r := l.reqs[i%len(l.reqs)]
		sinkRoute = adv.Advise(r.File, r.User, apInfo).Route
	})
	return nil
}

// cloudLayer runs the trace through a pool squeezed to a twelfth of the
// population under two eviction policies: lookup, and admit on a miss.
func (l *ledger) cloudLayer(context.Context) error {
	for _, name := range []string{"lru", "band"} {
		pol, err := cloud.NewPolicy(name)
		if err != nil {
			return err
		}
		pool := cloud.NewStoragePoolPolicy(l.popBytes/l.e.sc.PoolDivisor, len(l.files), pol)
		l.out["cloud.pool_op_ns."+name] = perOp(len(l.reqs), func(i int) {
			f := l.reqs[i].File
			if !pool.Lookup(f.ID) {
				pool.AddMeta(f)
			}
		})
		if name == "band" {
			l.out["cloud.pool_hit_ratio.band"] = pool.Stats().HitRatio()
		}
	}
	return nil
}

// bind points a reused backend request at record i the way the replay
// engine's workers do, except that rng simply runs on from the previous
// record: reseeding it costs several times what a backend operation
// does, and is timed on its own as dist.reseed_ns.
func (l *ledger) bind(req *backend.Request, rng *dist.RNG, i int) {
	r := l.reqs[i]
	req.Reset()
	req.Index = i
	req.User = r.User
	req.File = r.File
	req.RNG = rng
	req.EnvCap = replay.EnvCap
	req.When = r.Time
	req.AP = l.aps[i%len(l.aps)]
}

// backendLayer times fleet construction, the sequential observation
// pass, and each backend's pre-download + fetch, bare and wrapped.
func (l *ledger) backendLayer(context.Context) error {
	n := len(l.reqs)
	scale := float64(len(l.files)) / cloud.FullScaleFiles
	staticCfg := cloud.DefaultConfig(scale, l.e.seed)
	bandCfg := staticCfg
	bandCfg.CachePolicy = "band"
	bandCfg.PoolCapacity = l.popBytes / l.e.sc.PoolDivisor

	var set *backend.Set
	l.out["backend.newset_s"], _ = seconds(func() error {
		set = backend.NewSet(l.files, staticCfg, l.e.seed)
		return nil
	})
	observe := func(s *backend.Set) float64 {
		return perOp(n, func(i int) { s.Cloud.ObserveAt(i, l.reqs[i].File, l.reqs[i].Time) })
	}
	l.out["backend.observe_ns.static"] = observe(set)
	l.out["backend.observe_ns.band"] = observe(backend.NewSet(l.files, bandCfg, l.e.seed))

	// The engine gives every record its own RNG substream, reseeding a
	// worker's scratch generator from the record's index.
	var req backend.Request
	rng := dist.NewRNG(0)
	root := dist.NewRNG(l.e.seed).Split("ledger")
	l.out["dist.reseed_ns"] = perOp(n, func(i int) { root.Split64Into(rng, uint64(i)) })
	loop := func(fn func(*backend.Request)) float64 {
		return perOp(n, func(i int) {
			l.bind(&req, rng, i)
			fn(&req)
		})
	}
	exec := func(b backend.Backend) func(*backend.Request) {
		return func(r *backend.Request) {
			if b.PreDownload(r).OK {
				b.Fetch(r)
			}
		}
	}
	fleet := backend.NewFleet(set)
	cloudBE := fleet.For(core.RouteCloud)
	l.out["backend.probe_ns"] = loop(func(r *backend.Request) { cloudBE.Probe(r) })
	l.out["backend.exec_ns.cloud"] = loop(exec(cloudBE))
	l.out["backend.exec_ns.smartap"] = loop(exec(fleet.For(core.RouteSmartAP)))
	l.out["backend.exec_ns.userdevice"] = loop(exec(fleet.For(core.RouteUserDevice)))

	// Wrapped fleets run each record on the route Decide picks for it,
	// as the engine does. A fresh set each, so ledgers and memoized
	// outcomes start equal.
	fs, err := faults.ParseSpec(l.e.sc.Faults)
	if err != nil {
		return err
	}
	routed := func(f *backend.Fleet) func(*backend.Request) {
		probe := f.For(core.RouteCloud)
		return func(r *backend.Request) {
			in := l.decideInput(r.Index, probe.Probe(r))
			if b := f.For(core.Decide(in).Route); b.PreDownload(r).OK {
				b.Fetch(r)
			}
		}
	}
	primed := func() *backend.Fleet {
		s := backend.NewSet(l.files, staticCfg, l.e.seed)
		s.Cloud.Prime(l.reqs)
		return backend.NewFleet(s)
	}
	// The unwrapped loop is the base the two wrapped ones compare with.
	l.out["backend.routed_exec_ns"] = loop(routed(primed()))

	reg := obs.NewRegistry()
	l.out["faults.exec_ns"] = loop(routed(faults.WrapFleet(primed(), fs, l.e.seed, reg)))
	l.out["faults.injected_share"] = sumCounters(reg.Snapshot(), faults.MetricInjected) / float64(n)

	reg = obs.NewRegistry()
	resilient, finish := backend.WrapResilient(faults.WrapFleet(primed(), fs, l.e.seed, reg), backend.RetryPolicy{}, reg)
	l.out["backend.resilient_exec_ns"] = loop(routed(resilient))
	finish()
	retries := sumCounters(reg.Snapshot(), backend.MetricRetries)
	// One pre-download per record, plus a fetch when it succeeds: two
	// first attempts at most; the share is of all attempts made.
	l.out["backend.retry_share"] = retries / (2*float64(n) + retries)
	return nil
}

// obsLayer times the registry's hot path. Snapshot, merge and encode
// are timed in replayLayer, on a registry a replay filled.
func (l *ledger) obsLayer(context.Context) error {
	reg := obs.NewRegistry()
	c := reg.Counter(obs.Label("odr_bench_total", "kind", "ledger"))
	h := reg.HistogramScaled("odr_bench_seconds", 1e6)
	ops := l.e.sc.LedgerOps
	l.out["obs.counter_inc_ns"] = perOp(ops, func(int) { c.Inc() })
	l.out["obs.hist_observe_ns"] = perOp(ops, func(i int) { h.Observe(uint64(i)) })
	return nil
}

// heapPeak samples the live heap every few milliseconds while fn runs
// and returns the largest reading in MB. runtime/metrics reads do not
// stop the world.
func heapPeak(fn func() error) (float64, error) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	err := fn()
	close(stop)
	wg.Wait()
	return float64(peak) / (1 << 20), err
}

// replayLayer replays the ledger trace through each engine entry point.
func (l *ledger) replayLayer(context.Context) error {
	n := float64(len(l.reqs))
	stream := func(opts replay.Options) (*replay.ODRResult, float64, error) {
		src, _, closer, err := trace.OpenWorkloadFile(l.path)
		if err != nil {
			return nil, 0, err
		}
		defer closer.Close()
		var res *replay.ODRResult
		s, err := seconds(func() error {
			res, err = replay.RunODRStream(src, l.files, l.aps, opts)
			return err
		})
		return res, s, err
	}
	// A pass over the ledger trace is a fraction of a second, so ratios
	// of two passes are taken between the fastest of three each.
	fastest := func(opts replay.Options) (float64, error) {
		best := 0.0
		for i := 0; i < 3; i++ {
			_, s, err := stream(opts)
			if err != nil {
				return 0, err
			}
			if best == 0 || s < best {
				best = s
			}
		}
		return best, nil
	}
	base := replay.Options{Seed: l.e.seed, Shards: l.e.P}

	one := base
	one.Shards = 1
	s1, err := fastest(one)
	if err != nil {
		return err
	}
	sP, err := fastest(base)
	if err != nil {
		return err
	}

	// One more P-shard pass carries the allocation, GC and heap readings.
	var before, after runtime.MemStats
	var res *replay.ODRResult
	runtime.GC()
	runtime.ReadMemStats(&before)
	peak, err := heapPeak(func() error {
		var err error
		res, _, err = stream(base)
		return err
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	l.out["replay.stream_rec_per_s.s1"] = n / s1
	l.out["replay.stream_rec_per_s.sP"] = n / sP
	l.out["replay.shard_scaling"] = s1 / sP
	l.out["replay.allocs_per_rec"] = float64(after.Mallocs-before.Mallocs) / n
	l.out["replay.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	l.out["replay.heap_peak_mb"] = peak

	sliceS, _ := seconds(func() error {
		replay.RunODR(l.reqs, l.files, l.aps, base)
		return nil
	})
	l.out["replay.slice_rec_per_s.sP"] = n / sliceS

	reg := obs.NewRegistry()
	withReg := base
	withReg.Metrics = reg
	regS, err := fastest(withReg)
	if err != nil {
		return err
	}
	l.out["replay.metrics_overhead_share"] = regS/sP - 1
	snap := reg.Snapshot()
	l.out["replay.inflight_peak"] = float64(snap.Gauges[replay.MetricInflightPeak])

	tl := replay.TimelineConfig{Window: time.Duration(l.e.sc.TimelineHours) * time.Hour}
	s, _ := seconds(func() error { replay.BuildTimeline(res.Tasks, tl); return nil })
	l.out["replay.timeline_build_ms"] = s * 1000
	s, _ = seconds(func() error { res.Digest(); return nil })
	l.out["replay.digest_ms"] = s * 1000

	const repeats = 20
	ms := func(fn func() error) (float64, error) {
		s, err := seconds(func() error {
			for i := 0; i < repeats; i++ {
				if err := fn(); err != nil {
					return err
				}
			}
			return nil
		})
		return s / repeats * 1000, err
	}
	l.out["obs.snapshot_ms"], _ = ms(func() error { reg.Snapshot(); return nil })
	l.out["obs.merge_ms"], _ = ms(func() error { obs.NewRegistry().Merge(reg); return nil })
	l.out["obs.prom_encode_ms"], err = ms(func() error { return obs.WritePrometheus(io.Discard, snap) })
	return err
}

// distribLayer runs coordinator workers in this process, one at a time,
// so each piece of a coordinated run has its own number: planning, a
// worker's start-up (everything before its window's first record: the
// census pass and the observation prefix) at two offsets, whole windows,
// the partial-result codec, the merge, and the durable manifest write.
func (l *ledger) distribLayer(ctx context.Context) error {
	records := int64(len(l.reqs))
	spec := distrib.WorkerSpec{
		Seed:        l.e.seed,
		Shards:      1,
		CachePolicy: "band",
		PoolBytes:   l.popBytes / l.e.sc.PoolDivisor,
		Faults:      l.e.sc.Faults,
	}
	var windows []distrib.Window
	l.out["distrib.plan_us"] = perOp(1000, func(int) { windows = distrib.PlanWindows(records, l.e.sc.Windows) }) / 1000

	worker := func(w distrib.Window, name string) (float64, string, error) {
		path := filepath.Join(l.dir, name+".odrp")
		s, err := seconds(func() error {
			return distrib.RunWorker(ctx, distrib.WorkerRequest{TracePath: l.path, Window: w, Spec: spec, PartialPath: path}, nil)
		})
		return s, path, err
	}
	// A window of at most 1,024 records is nearly all start-up.
	tiny := int64(1024)
	if tiny > records/4 {
		tiny = records / 4
	}
	var err error
	if l.out["distrib.startup_s.off0"], _, err = worker(distrib.Window{Offset: 0, Limit: tiny}, "startup0"); err != nil {
		return err
	}
	if l.out["distrib.startup_s.off75"], _, err = worker(distrib.Window{Offset: records * 3 / 4, Limit: tiny}, "startup75"); err != nil {
		return err
	}

	var workerSeconds float64
	paths := make([]string, len(windows))
	for i, w := range windows {
		s, path, err := worker(w, "window"+strconv.Itoa(i))
		if err != nil {
			return err
		}
		paths[i] = path
		workerSeconds += s
		if i == 0 {
			l.out["distrib.worker_s.first"] = s
		}
		l.out["distrib.worker_s.last"] = s
	}
	single, err := seconds(func() error {
		_, err := distrib.SingleProcess(l.path, spec, nil)
		return err
	})
	if err != nil {
		return err
	}
	// Above 1, the excess is work the windowing repeats: every worker's
	// census and prefix.
	l.out["distrib.worker_seconds_ratio"] = workerSeconds / single

	parts := make([]*distrib.Partial, len(paths))
	var readS float64
	for i, path := range paths {
		s, err := seconds(func() error {
			var err error
			parts[i], err = distrib.ReadPartial(path)
			return err
		})
		if err != nil {
			return err
		}
		readS = s
	}
	last := parts[len(parts)-1]
	l.out["distrib.partial_read_ms"] = readS * 1000
	rewrite := filepath.Join(l.dir, "rewrite.odrp")
	s, err := seconds(func() error { return distrib.WritePartial(rewrite, last) })
	if err != nil {
		return err
	}
	l.out["distrib.partial_write_ms"] = s * 1000
	info, err := os.Stat(rewrite)
	if err != nil {
		return err
	}
	l.out["distrib.partial_bytes_per_task"] = float64(info.Size()) / float64(len(last.Tasks))

	s, err = seconds(func() error {
		_, err := distrib.MergePartials(parts)
		return err
	})
	if err != nil {
		return err
	}
	l.out["distrib.merge_ms"] = s * 1000

	var sha string
	s, err = seconds(func() error {
		var err error
		sha, err = trace.SHA256File(l.path)
		return err
	})
	if err != nil {
		return err
	}
	l.out["distrib.sha256_ms"] = s * 1000
	const saves = 5
	man := distrib.NewManifest(l.path, sha, records, spec, l.e.sc.Windows)
	s, err = seconds(func() error {
		for i := 0; i < saves; i++ {
			if err := distrib.SaveManifest(filepath.Join(l.dir, distrib.ManifestName), man); err != nil {
				return err
			}
		}
		return nil
	})
	l.out["distrib.manifest_save_ms"] = s / saves * 1000
	return err
}

// ingestLayer times admission control and the pipeline's queue hop with
// a processor that does nothing.
func (l *ledger) ingestLayer(ctx context.Context) error {
	ops := l.e.sc.LedgerOps
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = "u" + strconv.Itoa(i)
	}
	lim := ratelimit.NewKeyedLimiter(1e12, 1e12, 0)
	l.out["ratelimit.keyed_allow_ns"] = perOp(ops, func(i int) { lim.TryTake(keys[i%len(keys)], 1) })

	p := ingest.New(ingest.Config{Workers: l.e.P, QueueDepth: serveIngestQueue}, func([]int) {})
	var failed error
	submit := func(g *ingest.Group, i int) {
		if err := p.Submit(g, uint64(i), i); err != nil && failed == nil {
			failed = err
		}
	}
	l.out["ingest.submit_wait_us"] = perOp(ops/10, func(i int) {
		g := p.NewGroup()
		submit(g, i)
		if err := g.Wait(ctx); err != nil && failed == nil {
			failed = err
		}
	}) / 1000
	batch := l.e.sc.BatchItems
	calls := ops / batch
	ns := perOp(calls, func(c int) {
		g := p.NewGroup()
		for i := 0; i < batch; i++ {
			submit(g, c*batch+i)
		}
		if err := g.Wait(ctx); err != nil && failed == nil {
			failed = err
		}
	})
	l.out["ingest.noop_items_per_s"] = float64(batch) / (ns / 1e9)
	if err := p.Close(ctx); err != nil {
		return err
	}
	return failed
}

// odrwebLayer drives the decide service's handler directly — no socket —
// and then the same request over loopback; the difference is net/http
// and the kernel. The server's own registry supplies what the ingest
// pipeline saw.
func (l *ledger) odrwebLayer(ctx context.Context) error {
	srv, err := newInProcessServer(l.e.sc.LedgerFiles, l.e.seed, l.e.P)
	if err != nil {
		return err
	}
	defer srv.CloseIngest(ctx)
	batch := l.e.sc.BatchItems
	// A quarter of serve-decide's bodies: the ledger trace is smaller.
	singles, batches := l.e.sc.Singles/4, l.e.sc.Batches/4
	items, err := decideItems(l.e.sc.LedgerFiles, l.e.seed, singles+batches*batch)
	if err != nil {
		return err
	}
	var w struct{ singles, batches [][]byte }
	if w.singles, w.batches, err = marshalBodies(items, singles, batch); err != nil {
		return err
	}

	var failed error
	var respBytes int
	serve := func(method, path string, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		respBytes = rec.Body.Len()
		if rec.Code != http.StatusOK && failed == nil {
			failed = fmt.Errorf("ledger: %s %s answered %d: %.200s", method, path, rec.Code, rec.Body.Bytes())
		}
	}
	ops := l.e.sc.LedgerOps / 10
	l.out["odrweb.handler_single_us"] = perOp(ops, func(i int) {
		serve(http.MethodPost, "/api/v1/decide", w.singles[i%len(w.singles)])
	}) / 1000
	calls := ops / batch
	if calls < 1 {
		calls = 1
	}
	l.out["odrweb.handler_batch_us_per_item"] = perOp(calls, func(i int) {
		serve(http.MethodPost, "/api/v1/decide/batch", w.batches[i%len(w.batches)])
	}) / 1000 / float64(batch)
	l.out["odrweb.json_bytes_per_item"] = float64(len(w.batches[(calls-1)%len(w.batches)])+respBytes) / float64(batch)

	const scrapes = 20
	l.out["odrweb.metrics_scrape_ms"] = perOp(scrapes, func(int) { serve(http.MethodGet, "/metrics", nil) }) / 1e6

	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := newLoadClient(1)
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	l.out["odrweb.http_single_us"] = perOp(ops/4, func(i int) {
		if err := post(ctx, client, ts.URL+"/api/v1/decide", w.singles[i%len(w.singles)], &buf); err != nil && failed == nil {
			failed = err
		}
	}) / 1000

	snap := srv.Snapshot()
	if h, ok := snap.Histograms["odr_ingest_batch_size"]; ok && h.Count > 0 {
		l.out["ingest.batch_size_mean"] = float64(h.Sum) / float64(h.Count)
	} else {
		l.out["ingest.batch_size_mean"] = 0
	}
	admitted := sumCounters(snap, "odr_ingest_admitted_total")
	rejected := sumCounters(snap, "odr_ingest_rejected_total")
	l.out["ingest.rejected_share"] = 0
	if admitted+rejected > 0 {
		l.out["ingest.rejected_share"] = rejected / (admitted + rejected)
	}
	return failed
}
