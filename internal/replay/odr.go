package replay

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"odr/internal/backend"
	"odr/internal/cloud"
	"odr/internal/core"
	"odr/internal/faults"
	"odr/internal/obs"
	"odr/internal/smartap"
	"odr/internal/stats"
	"odr/internal/storage"
	"odr/internal/workload"
)

// bestStorage is the ideal AP storage configuration, used by the
// storage-signal ablation.
var bestStorage = storage.Device{Type: storage.SATAHDD, FS: storage.EXT4}

// ODRTask is one request replayed through ODR.
type ODRTask struct {
	Request  workload.Request
	Decision core.Decision
	// Success reports whether the file was ultimately obtained.
	Success bool
	// Cause classifies a failure.
	Cause string
	// PerceivedRate is the user-perceived fetch/download speed in
	// bytes/second — the quantity Figure 17 plots (0 on failure).
	PerceivedRate float64
	// PreDelay is time spent before the user-facing fetch could start
	// (cloud or AP pre-downloading).
	PreDelay time.Duration
	// CloudBytes is upload traffic charged to the cloud by this task.
	CloudBytes float64
	// StorageBound reports whether AP storage capped the transfer
	// (Bottleneck 4 residue; should be ≈0 under ODR).
	StorageBound bool
	// B4Exposed reports whether the task was routed onto an AP whose
	// storage ceiling sits below the usable access bandwidth.
	B4Exposed bool
}

// Impeded reports whether the user-perceived speed fell below the
// 125 KBps HD threshold.
func (t *ODRTask) Impeded() bool {
	return !t.Success || t.PerceivedRate < core.HDThreshold
}

// ODRResult is the outcome of a §6.2 replay. Use it by pointer: the
// memoized summary behind the aggregate accessors embeds a sync.Once
// (go vet's copylocks check flags value copies).
type ODRResult struct {
	Tasks []ODRTask
	// Backends is the fleet the replay ran against; its ledgers carry the
	// byte and outcome totals.
	Backends *backend.Set
	// Engine records how the sharded engine executed the run.
	Engine EngineStats
	// Timeline is the windowed observability timeline, recorded as the
	// shards finish their tasks when Options.Timeline is set (nil
	// otherwise).
	Timeline *Timeline

	// summaryOnce guards the lazily built summary: experiment reports read
	// several aggregates off one result, and a 200k-task replay should pay
	// for the full-task scan once, not once per accessor call. Tasks must
	// not be mutated after the first accessor call.
	summaryOnce sync.Once
	summary     resultSummary
}

// resultSummary is the once-computed aggregate cache behind ODRResult's
// scanning accessors. Every field is a pure function of the task records,
// so computing them in one pass is observably identical to the scan each
// accessor used to run (pinned by TestODRResultSummaryMatchesScan).
type resultSummary struct {
	completed, impeded, fails int
	preDelaySum               time.Duration
	hpPreDelaySum             time.Duration
	hpCompleted               int
	unpopFails, unpopTotal    int
	storageBound, b4Exposed   int
	speeds                    *stats.Sample
}

// summarize builds (once) and returns the aggregate summary.
func (r *ODRResult) summarize() *resultSummary {
	r.summaryOnce.Do(func() {
		s := &r.summary
		s.speeds = stats.NewSample(len(r.Tasks))
		for i := range r.Tasks {
			t := &r.Tasks[i]
			s.speeds.Add(t.PerceivedRate)
			if t.B4Exposed {
				s.b4Exposed++
			}
			band := t.Request.File.Band()
			if band == workload.BandUnpopular {
				s.unpopTotal++
				if !t.Success {
					s.unpopFails++
				}
			}
			if !t.Success {
				s.fails++
				continue
			}
			s.completed++
			if t.PerceivedRate < core.HDThreshold {
				s.impeded++
			}
			s.preDelaySum += t.PreDelay
			if t.StorageBound {
				s.storageBound++
			}
			if band == workload.BandHighlyPopular {
				s.hpPreDelaySum += t.PreDelay
				s.hpCompleted++
			}
		}
		if s.speeds.N() > 0 {
			// Force the sample's lazy sort now, so the shared *Sample
			// FetchSpeeds hands out is read-only afterwards.
			s.speeds.Median()
		}
	})
	return &r.summary
}

// Options tunes an ODR replay.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// CachePolicy selects the cloud pool's eviction policy by name
	// (cloud.PolicyNames). Empty replays against the default static warm
	// pool; naming a policy (including "lru") switches the cloud backend to
	// dynamic mode, where the pool evolves request by request under the
	// policy. Results stay byte-identical across shard counts for every
	// policy.
	CachePolicy string
	// PoolBytes overrides the cloud pool capacity in bytes (<= 0 keeps the
	// default, scaled to the file population). The policy tournament uses it to put the
	// pool under capacity pressure.
	PoolBytes int64
	// Shards is the engine's shard count; non-positive selects
	// GOMAXPROCS. Results are identical for every value.
	Shards int
	// DisablePopularitySignal makes ODR treat every file as not highly
	// popular (ablation: Bottleneck 2/3 logic off).
	DisablePopularitySignal bool
	// DisableISPSignal makes ODR treat every user as barrier-free
	// (ablation: Bottleneck 1 logic off).
	DisableISPSignal bool
	// DisableStorageSignal makes ODR ignore AP storage restrictions
	// (ablation: Bottleneck 4 logic off).
	DisableStorageSignal bool
	// Faults, when non-nil and enabled, wraps every backend with the
	// deterministic fault-injection layer: per-operation faults are drawn
	// from each request's RNG substream and episode windows are derived
	// from Seed, so faulted replays remain byte-identical for any shard
	// count (TestReplayDeterminismFaults pins this).
	Faults *faults.Spec
	// Resilience, when non-nil, makes the replay failure-aware: every
	// backend gains bounded retry with RNG-drawn backoff jitter, a
	// per-operation timeout, and per-user circuit breaking, and the
	// decide path degrades to the next-best backend (reasons
	// circuit_open, degraded, retry_exhausted) instead of failing the
	// task. Nil replays naively: injected faults fail tasks outright.
	// Zero fields take RetryPolicy defaults.
	Resilience *backend.RetryPolicy
	// Metrics, when non-nil, receives the replay's observability: decision
	// counts per backend and reason, fetch latency/byte histograms,
	// stagnation counters, backend probe/pre-download/fetch outcomes, and
	// engine totals. Recording never changes replay results — digests are
	// byte-identical with Metrics nil or set — and the merged values are
	// identical for every shard count (TestReplayDeterminism pins both).
	Metrics *obs.Registry
	// Timeline, when non-nil, records a windowed observability timeline
	// (ODRResult.Timeline) beside the run metrics, in the same pass over
	// each task. Recording it never changes replay results, and the
	// windows are byte-identical for every shard count (see Timeline).
	Timeline *TimelineConfig

	// chunk overrides the engine's batch size (0 = streamChunk). It is a
	// test seam, like poisonReleasedBatches: the determinism tests replay
	// at small chunks to prove the transport never changes a result.
	chunk int
	// untallied makes the engine's shards charge the fleet's shared
	// ledgers, handles and wrapper counters as each request runs instead
	// of a backend.Tally of their own. A test seam, like chunk:
	// TestFleetTalliesMatchSharedHandles proves the tallies change no
	// count.
	untallied bool
}

// newFleet builds the route view the replay executes against, layering
// the options' wrappers over the concrete set: the fault injector sits
// closest to the backends, the resilience policy on top (retries must
// see injected faults, not the other way around). finish publishes the
// end-of-run circuit gauges; it is a no-op without resilience.
func newFleet(set *backend.Set, opts Options) (fleet *backend.Fleet, finish func()) {
	fleet = backend.NewFleet(set)
	if opts.Faults != nil && opts.Faults.Enabled() {
		fleet = faults.WrapFleet(fleet, *opts.Faults, opts.Seed, opts.Metrics)
	}
	finish = func() {}
	if opts.Resilience != nil {
		fleet, finish = backend.WrapResilient(fleet, *opts.Resilience, opts.Metrics)
	}
	return fleet, finish
}

// overSlice unwraps a stream entry point's result for the slice-taking
// adapters. A SliceSource yields its indices in order and cannot fail, so
// an error here is an engine bug, not an input condition.
func overSlice[R any](res R, err error) R {
	if err != nil {
		panic("replay: slice source failed: " + err.Error())
	}
	return res
}

// RunODR is RunODRStream over an in-memory sample.
func RunODR(sample []workload.Request, files []*workload.FileMeta,
	aps []*smartap.AP, opts Options) *ODRResult {
	return overSlice(RunODRStream(workload.NewSliceSource(sample), files, aps, opts))
}

// RunODRStream replays a request stream through the ODR decision
// procedure. Each request's user owns the AP it was assigned in the §5.1
// environment (round-robin over aps). The engine's reader primes the
// cloud request by request (backend.Cloud.ObserveAt) as it fans out to
// the shards: observation happens in global-index order before each
// request is dispatched, so every Probe sees exactly the cache visibility
// its position in the stream entitles it to. A source that announces its
// length (workload.Sizer) is never resident as a request slice, but the
// result is one ODRTask per request and each task embeds its Request, so
// the result grows with the stream whatever the in-flight window is; a
// source of unknown length is additionally materialised once up front.
func RunODRStream(src workload.RequestSource, files []*workload.FileMeta,
	aps []*smartap.AP, opts Options) (*ODRResult, error) {
	run, err := runODR[ODRTask](nil, nil, src, 0, files, aps, opts)
	if err != nil {
		return nil, err
	}
	return &ODRResult{Tasks: run.records, Backends: run.set, Engine: run.engine, Timeline: run.timeline}, nil
}

// OrdinalSource is a trace's records read as ordinals (trace.BinOrdinals):
// each record's index, from 0, its file's census ordinal — its index in
// the trace's census, its files in first-appearance order — and its time.
type OrdinalSource interface {
	Next() (i, file int, when time.Duration, ok bool)
	Err() error
}

// ObserveStates makes every window start state: it hands emit the
// cloud's observation state (backend.Cloud.AppendState) at each of bases,
// in order — the state a whole-trace replay's cloud holds on reaching that
// record. bases must ascend. census is the trace's census
// (trace.BinCensus.Files), which seeds the population, and first its
// files' first-appearance indices (trace.BinCensus.First). A static
// cloud (no cache policy) has observed exactly the files first seen
// before the base, so its state comes from first and no record is read.
// Under a cache policy the pass streams src — the trace's records from
// index 0 — through the cloud's observation alone (ObserveOrdinal: no RNG
// draws, no ledger writes, no task execution), reading no record past the
// last base. The census's file IDs are distinct — a bin trace's table
// refuses a repeated one — so a record's census ordinal is its population
// ordinal, and the pass indexes the census by it with no identity check.
// Each state fits a RunODRWindow over the same census and options.
func ObserveStates(src OrdinalSource, census []*workload.FileMeta, first []int, opts Options,
	bases []int, emit func(base int, state []byte) error) error {
	if len(bases) == 0 {
		return nil
	}
	for k, b := range bases {
		if b < 0 || (k > 0 && b < bases[k-1]) {
			return fmt.Errorf("replay: observation bases %v must be non-negative and ascending", bases)
		}
	}
	if opts.CachePolicy == "" {
		for _, base := range bases {
			if err := emit(base, backend.AppendStaticState(nil, base, sort.SearchInts(first, base))); err != nil {
				return err
			}
		}
		return nil
	}
	set := newSet(census, opts, bases[len(bases)-1])
	n := 0
	for _, base := range bases {
		for ; n < base; n++ {
			i, file, when, ok := src.Next()
			if !ok {
				if err := src.Err(); err != nil {
					return fmt.Errorf("replay: observation pass: %w", err)
				}
				return fmt.Errorf("replay: observation pass ended after %d records, before the base %d", n, base)
			}
			if i != n {
				return fmt.Errorf("replay: observation pass yielded index %d, want %d", i, n)
			}
			if file < 0 || file >= len(census) {
				return fmt.Errorf("replay: observation pass: record %d names file %d of a census of %d", i, file, len(census))
			}
			set.Cloud.ObserveOrdinal(i, backend.Ordinal(file+1), census[file], when)
		}
		state, err := set.Cloud.AppendState(nil)
		if err != nil {
			return err
		}
		if err := emit(base, state); err != nil {
			return err
		}
	}
	return nil
}

// World is what every window replayed over one trace's census under one
// set of options shares: the census population's numbering and bands, the
// static warm pool, and each file's pre-download outcome and warm bit,
// built the first time a window's observation reaches the file
// (backend.World). All of it is a pure function of the census and the
// options' Seed, CachePolicy and PoolBytes, so a window replayed over a
// World that earlier windows filled replays exactly as over a fresh one.
// Windows over one World replay one at a time.
type World struct {
	census    []*workload.FileMeta
	seed      uint64
	policy    string
	poolBytes int64
	w         *backend.World
}

// NewWorld builds the world of windows over census — a bin trace's census
// (trace.Bin.Census().Files) — under opts.
func NewWorld(census []*workload.FileMeta, opts Options) *World {
	return &World{
		census: census, seed: opts.Seed, policy: opts.CachePolicy, poolBytes: opts.PoolBytes,
		w: backend.NewWorld(census, cloudConfig(census, opts), opts.Seed),
	}
}

// fits reports which of opts' fields the world was not built for.
func (w *World) fits(opts Options) error {
	var field string
	var got, want any
	switch {
	case opts.Seed != w.seed:
		field, got, want = "seed", opts.Seed, w.seed
	case opts.CachePolicy != w.policy:
		field, got, want = "cache policy", opts.CachePolicy, w.policy
	case opts.PoolBytes != w.poolBytes:
		field, got, want = "pool bytes", opts.PoolBytes, w.poolBytes
	default:
		return nil
	}
	return fmt.Errorf("replay: the window's %s is %v, its world was built for %v", field, got, want)
}

// RunODRWindow replays one contiguous record window of a larger trace
// over world, built over the trace's census under the same options:
// window yields the records at global indices [base, base+n) (re-based at
// 0, as every RequestSource is) as the trace's own reader yields them
// (trace.Bin.Window, whose files carry their census ordinals), and state
// is the cloud's observation state at base — what ObserveStates emitted
// for base over the same trace, census and options (in static mode, the
// census prefix seen before base). Restoring it gives the window's cloud
// exactly the cache state — the static files already seen or a dynamic
// policy's evolved pool — that a whole-trace replay's has on reaching
// record base. The window builds only what it mutates — its cloud's
// verdicts and seen files or restored pool, the ledgers, the tallies, the
// engine's buffers — over the world's shared state, and resolves each
// record's file by its census ordinal (backend.Population.ResolveCensus).
// The window then replays with every index-keyed input (RNG substream, AP
// assignment, cache verdict) offset by base, so its task records and
// ledger deltas are byte-identical to the corresponding span of the
// whole-trace replay. internal/distrib stacks these windows back into a
// whole-trace digest. The window keeps each task as its digest record
// (WindowResult), written in place by the shard that ran the task, so no
// []ODRTask is ever built; Options.Metrics still tallies every whole task.
// A window records no timeline: Options.Timeline is ignored.
//
// Options.Resilience must be nil: the per-user circuit breaker's strikes
// and cooldowns follow executed outcomes — which earlier requests failed,
// and when — not observations, so no observation state carries them.
// Faults replay naively (each fault drawn from the request's own
// substream), which is window-safe.
func RunODRWindow(world *World, state []byte, window workload.RequestSource, base int,
	aps []*smartap.AP, opts Options) (*WindowResult, error) {
	if opts.Resilience != nil {
		return nil, fmt.Errorf("replay: windowed replay cannot run the resilience layer: its per-user breaker state depends on executed outcomes, not observations, so no observation state restores it; replay faults naively (Resilience nil) or run single-process")
	}
	if base < 0 {
		return nil, fmt.Errorf("replay: negative window base %d", base)
	}
	if state == nil {
		return nil, fmt.Errorf("replay: the window at base %d needs the cloud's observation state there (ObserveStates)", base)
	}
	if err := world.fits(opts); err != nil {
		return nil, err
	}
	opts.Timeline = nil
	run, err := runODR[DigestRecord](world, state, window, base, world.census, aps, opts)
	if err != nil {
		return nil, err
	}
	return &WindowResult{Records: run.records, Backends: run.set, Engine: run.engine, Setup: run.setup}, nil
}

// WindowResult is a window's replay as RunODRWindow keeps it: each task's
// digest record, in window order, beside the fleet the window ran against
// and the engine's stats.
type WindowResult struct {
	Records  []DigestRecord
	Backends *backend.Set
	Engine   EngineStats
	// Setup is the window's fleet built — its cloud restored from the
	// state, sized and wrapped — before the engine read its first record.
	Setup time.Duration
}

// Ledgers freezes the window's backend ledgers, as ODRResult.Ledgers does.
func (r *WindowResult) Ledgers() []LedgerCounts { return ledgers(r.Backends) }

// newSet builds the replay's backend set over files, sized for n records
// (Set.Reserve).
func newSet(files []*workload.FileMeta, opts Options, n int) *backend.Set {
	set := backend.NewSet(files, cloudConfig(files, opts), opts.Seed)
	set.Reserve(n)
	return set
}

// cloudConfig is the replay's cloud configuration: the paper calibration
// scaled to the file population, with the options' cache policy and any
// pool capacity override applied.
func cloudConfig(files []*workload.FileMeta, opts Options) cloud.Config {
	cfg := cloud.DefaultConfig(float64(len(files))/cloud.FullScaleFiles, opts.Seed)
	cfg.CachePolicy = opts.CachePolicy
	if opts.PoolBytes > 0 {
		cfg.PoolCapacity = opts.PoolBytes
	}
	return cfg
}

// odrRun is what runODR produced: the record kept per task, the fleet,
// the engine's stats, the timeline (nil unless Options.Timeline) and the
// time its fleet took to build.
type odrRun[T DigestInput] struct {
	records  []T
	set      *backend.Set
	engine   EngineStats
	timeline *Timeline
	setup    time.Duration
}

// runODR is the shared body of RunODRStream (no world or state, base 0,
// whole tasks kept) and RunODRWindow (over a world at a state, digest
// records kept). Each shard builds its task in the slot it keeps — an
// ODRTask — or in a scratch task it then projects into its DigestRecord
// slot; either way the tallies see the whole task.
func runODR[T DigestInput](world *World, state []byte, window workload.RequestSource, base int,
	files []*workload.FileMeta, aps []*smartap.AP, opts Options) (*odrRun[T], error) {
	if len(aps) == 0 {
		panic("replay: ODR replay needs at least one AP")
	}
	window, records, err := sized(window)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var set *backend.Set
	if world == nil {
		set = newSet(files, opts, base+records)
	} else if set, err = world.w.RestoreSet(state, base); err != nil {
		return nil, fmt.Errorf("replay: restoring the observation state at record %d: %w", base, err)
	} else {
		set.Reserve(base + records)
	}
	// A window inside the trace records the pool counters it adds to its
	// restored state; the window at record 0 counts from the fresh cloud,
	// warm fill included, as a whole-trace replay does.
	var from cloud.PoolStats
	if base > 0 {
		from = set.Cloud.PoolStats()
	}
	set.Instrument(opts.Metrics)
	fleet, finish := newFleet(set, opts)
	pop := set.Population()

	run := &odrRun[T]{set: set}
	if opts.Timeline != nil {
		run.timeline = NewTimeline(*opts.Timeline)
	}
	shards := shardCount(opts.Shards, records)
	tallies := newTaskTallies(shards, opts.Metrics != nil, run.timeline)
	work := func(s int) func(int, workload.Request, *backend.Request, *T) bool {
		var tally *taskTally
		if tallies != nil {
			tally = tallies[s]
		}
		var scratch ODRTask
		return func(_ int, wreq workload.Request, req *backend.Request, dst *T) bool {
			t, whole := any(dst).(*ODRTask)
			if !whole {
				t = &scratch
			}
			odrTask(t, wreq, req, pop, fleet, opts)
			if tally != nil {
				tally.record(t, t.Success)
			}
			if d, ok := any(dst).(*DigestRecord); ok {
				*d = t.digestRecord()
			}
			return t.Success
		}
	}
	fold := fleet.Fold
	if opts.untallied {
		fold = nil
	}
	run.setup = time.Since(start)
	run.records, run.engine, err = runShardedStream(window, aps, opts.Seed, base, shards,
		opts.chunk, opts.Metrics, fold, observer(set, base, world != nil), work)
	if err != nil {
		return nil, err
	}
	finish()
	foldTallies(tallies, opts.Metrics, run.timeline)
	recordPoolMetrics(opts.Metrics, set.Cloud, from)
	return run, nil
}

// observer is the engine's observe hook over set: resolve the record's
// ordinals — by census ordinal when the records are the census's trace's
// (RunODRWindow) — then observe it on the cloud at its global index.
func observer(set *backend.Set, base int, census bool) func(int, workload.Request) (backend.Ordinal, backend.Ordinal) {
	pop := set.Population()
	if census {
		return func(i int, wreq workload.Request) (backend.Ordinal, backend.Ordinal) {
			file, user := pop.ResolveCensus(wreq)
			set.Cloud.ObserveOrdinal(base+i, file, wreq.File, wreq.Time)
			return file, user
		}
	}
	return func(i int, wreq workload.Request) (backend.Ordinal, backend.Ordinal) {
		file, user := pop.Resolve(wreq)
		set.Cloud.ObserveOrdinal(base+i, file, wreq.File, wreq.Time)
		return file, user
	}
}

// odrTask routes one request per Figure 15 and executes it on the backend
// the decision resolves to, filling task in place (the engine hands it a
// pooled slot in the shard's output buffer). With resilience enabled the
// routing is failure-aware: unhealthy backends are degraded around
// before any attempt, and a task that still fails on a fault gets one
// re-execution on the fallback backend (reason retry_exhausted).
func odrTask(task *ODRTask, wreq workload.Request, req *backend.Request,
	pop *backend.Population, fleet *backend.Fleet, opts Options) {
	user, file := req.User, req.File

	in := core.Input{
		Protocol:  file.Protocol,
		Band:      pop.Band(req.FileOrd),
		Cached:    fleet.For(core.RouteCloud).Probe(req),
		ISP:       user.ISP,
		AccessBW:  user.AccessBW,
		HasAP:     true,
		APStorage: req.AP.Device(),
		APCPUGHz:  req.AP.Spec().CPUGHz,
	}
	applyAblations(&in, opts)
	dec := core.Decide(in)
	// look is the fleet's health view of this request, nil for a naive
	// replay. backend.Degrade and execRoute only call it, so the closure
	// stays on the stack: the hot path allocates nothing for it.
	var look func(core.Route) backend.Health
	if opts.Resilience != nil {
		look = func(r core.Route) backend.Health { return fleet.Health(r, req) }
		dec, in, _, _, _ = backend.Degrade(look, in, dec)
	}
	*task = ODRTask{Request: wreq, Decision: dec}
	execRoute(task, fleet, req, in, look)

	if look != nil && !task.Success && backend.IsFaultCause(task.Cause) {
		if fb, fin, ok := core.Fallback(in, dec); ok {
			fb.Reason = core.ReasonRetryExhausted
			fb, fin, _, _, _ = backend.Degrade(look, fin, fb)
			waited := task.PreDelay
			*task = ODRTask{Request: wreq, Decision: fb}
			execRoute(task, fleet, req, fin, look)
			task.PreDelay += waited
		}
	}
}

// execRoute executes task's decision against the fleet. in must be the
// input the decision was derived from (the cloud-pre-download arm
// re-decides with Cached set, and routes around unhealthy backends
// again when look, the request's health view, is non-nil).
func execRoute(task *ODRTask, fleet *backend.Fleet, req *backend.Request,
	in core.Input, look func(core.Route) backend.Health) {
	switch task.Decision.Route {
	case core.RouteUserDevice:
		f := fleet.For(core.RouteUserDevice).Fetch(req)
		task.Success = f.OK
		task.PerceivedRate = f.Rate
		task.Cause = f.Cause
		if !f.OK {
			task.PreDelay = f.Delay
		}

	case core.RouteSmartAP:
		b := fleet.For(core.RouteSmartAP)
		pre := b.PreDownload(req)
		task.Success = pre.OK
		task.Cause = pre.Cause
		task.PreDelay = pre.Delay
		task.StorageBound = pre.StorageBound
		task.B4Exposed = backend.StorageExposed(req)
		if pre.OK {
			f := b.Fetch(req)
			task.Success = f.OK
			task.Cause = f.Cause
			task.PerceivedRate = f.Rate
			if !f.OK {
				task.PreDelay += f.Delay
			}
		}

	case core.RouteCloud:
		f := fleet.For(core.RouteCloud).Fetch(req)
		task.Success = f.OK
		task.Cause = f.Cause
		task.PerceivedRate = f.Rate
		task.CloudBytes = float64(f.CloudBytes)
		if !f.OK {
			task.PreDelay = f.Delay
		}

	case core.RouteCloudThenAP:
		cloudThenAP(task, fleet.For(core.RouteCloudThenAP), req)

	case core.RouteCloudPreDownload:
		pre := fleet.For(core.RouteCloudPreDownload).PreDownload(req)
		task.PreDelay = pre.Delay
		if !pre.OK {
			task.Cause = pre.Cause
			break
		}
		// Notified; ask ODR again — the file is now cached. The re-decide
		// cannot return RouteCloudPreDownload (Cached is set), so the
		// recursion terminates after one step.
		in.Cached = true
		dec2 := core.Decide(in)
		dec2, in, _, _, _ = backend.Degrade(look, in, dec2)
		waited := task.PreDelay
		*task = ODRTask{Request: task.Request, Decision: dec2}
		execRoute(task, fleet, req, in, look)
		task.PreDelay += waited
	}
}

// cloudThenAP executes the Bottleneck 1 mitigation on the composite
// backend: the AP pulls the file from the cloud over a stable HTTP path
// and the user fetches over the LAN.
func cloudThenAP(task *ODRTask, b backend.Backend, req *backend.Request) {
	pre := b.PreDownload(req)
	task.PreDelay = pre.Delay
	task.StorageBound = pre.StorageBound
	task.B4Exposed = pre.StorageBound
	task.CloudBytes = float64(pre.CloudBytes)
	if !pre.OK {
		task.Cause = pre.Cause
		return
	}
	f := b.Fetch(req)
	task.Success = f.OK
	task.Cause = f.Cause
	task.PerceivedRate = f.Rate
	task.CloudBytes += float64(f.CloudBytes)
	if !f.OK {
		task.PreDelay += f.Delay
	}
}

func applyAblations(in *core.Input, opts Options) {
	if opts.DisablePopularitySignal && in.Band == workload.BandHighlyPopular {
		in.Band = workload.BandPopular
	}
	if opts.DisableISPSignal {
		if !in.ISP.Supported() {
			in.ISP = workload.ISPUnicom
		}
		if in.AccessBW < core.HDThreshold {
			in.AccessBW = core.HDThreshold
		}
	}
	if opts.DisableStorageSignal && in.HasAP {
		// Pretend the AP has ideal storage.
		in.APStorage = bestStorage
		in.APCPUGHz = 1.0
	}
}

// ImpededRatio returns the fraction of completed fetching processes whose
// user-perceived speed fell below the HD threshold (Figure 16,
// Bottleneck 1 bar). As in §4.2, the metric is over fetching processes:
// tasks whose pre-download failed never fetch and are excluded.
func (r *ODRResult) ImpededRatio() float64 {
	s := r.summarize()
	if s.completed == 0 {
		return 0
	}
	return float64(s.impeded) / float64(s.completed)
}

// Completed returns the number of tasks that obtained their file.
func (r *ODRResult) Completed() int { return r.summarize().completed }

// FailureRatio returns the overall share of tasks that never obtained
// their file.
func (r *ODRResult) FailureRatio() float64 {
	if len(r.Tasks) == 0 {
		return 0
	}
	return float64(r.summarize().fails) / float64(len(r.Tasks))
}

// MeanPreDelay returns the mean pre-download (availability) delay over
// successful tasks — how long users waited before their fetch could start.
func (r *ODRResult) MeanPreDelay() time.Duration {
	s := r.summarize()
	if s.completed == 0 {
		return 0
	}
	return s.preDelaySum / time.Duration(s.completed)
}

// MeanPreDelayIf returns the mean availability delay over successful
// tasks satisfying keep. Unlike the fixed aggregates, an arbitrary
// predicate cannot be memoized, so this is the one accessor that still
// scans the tasks on every call.
func (r *ODRResult) MeanPreDelayIf(keep func(*ODRTask) bool) time.Duration {
	var sum time.Duration
	var n int
	for i := range r.Tasks {
		t := &r.Tasks[i]
		if !t.Success || !keep(t) {
			continue
		}
		sum += t.PreDelay
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// MeanPreDelayHighlyPopular returns the mean pre-download delay over
// successful highly-popular tasks — the waiting cost the storage signal
// saves by routing fast users' downloads off slow-storage APs.
func (r *ODRResult) MeanPreDelayHighlyPopular() time.Duration {
	s := r.summarize()
	if s.hpCompleted == 0 {
		return 0
	}
	return s.hpPreDelaySum / time.Duration(s.hpCompleted)
}

// UnpopularFailureRatio returns the failure ratio over unpopular files
// (Figure 16, Bottleneck 3 bar; ≈13 % under ODR).
func (r *ODRResult) UnpopularFailureRatio() float64 {
	s := r.summarize()
	if s.unpopTotal == 0 {
		return 0
	}
	return float64(s.unpopFails) / float64(s.unpopTotal)
}

// StorageBoundRatio returns the fraction of successful tasks capped by AP
// storage (Figure 16, Bottleneck 4 bar; ≈0 under ODR).
func (r *ODRResult) StorageBoundRatio() float64 {
	s := r.summarize()
	if s.completed == 0 {
		return 0
	}
	return float64(s.storageBound) / float64(s.completed)
}

// B4ExposedRatio returns the fraction of tasks routed onto an AP whose
// storage would cap the transfer below the access link (Figure 16,
// Bottleneck 4 bar; ≈0 under ODR).
func (r *ODRResult) B4ExposedRatio() float64 {
	if len(r.Tasks) == 0 {
		return 0
	}
	return float64(r.summarize().b4Exposed) / float64(len(r.Tasks))
}

// CloudBytes returns total bytes the cloud uploaded during the replay
// (direct user fetches plus cloud→AP pulls), read from the cloud
// backend's ledger.
func (r *ODRResult) CloudBytes() float64 {
	return float64(r.Backends.Cloud.Ledger().BytesOut())
}

// FetchSpeeds returns the Figure 17 sample: user-perceived fetch speeds in
// bytes/second, failures included at 0. The sample is memoized and shared
// across calls — read it (Quantile, Mean, Values), never Add to it.
func (r *ODRResult) FetchSpeeds() *stats.Sample {
	return r.summarize().speeds
}

// runBaseline replays the sample through a fixed-route baseline. Every
// baseline first gets the file into the cloud — a probe, then a cloud
// pre-download on a miss, failing the task when that fails — and then
// hands the task to deliver for its own last leg. The run counts as
// succeeded in the engine totals once the cloud holds the file, whatever
// deliver reports on the task.
func runBaseline(sample []workload.Request, files []*workload.FileMeta,
	aps []*smartap.AP, seed uint64,
	deliver func(task *ODRTask, set *backend.Set, req *backend.Request)) *ODRResult {
	set := newSet(files, Options{Seed: seed}, len(sample))
	res := &ODRResult{Backends: set}
	var err error
	res.Tasks, res.Engine, err = runShardedStream(workload.NewSliceSource(sample), aps,
		seed, 0, 0, 0, nil, set.Fold, observer(set, 0, false), everyShard(
			func(i int, wreq workload.Request, req *backend.Request, task *ODRTask) bool {
				*task = ODRTask{Request: wreq}
				if !set.Cloud.Probe(req) {
					pre := set.Cloud.PreDownload(req)
					task.PreDelay = pre.Delay
					if !pre.OK {
						task.Cause = pre.Cause
						return false
					}
				}
				deliver(task, set, req)
				return true
			}))
	return overSlice(res, err)
}

// HybridBaseline replays the sample through the commercial hybrid
// approach the paper contrasts ODR with in §7 (HiWiFi/MiWiFi/Newifi's
// cloud integration): every file always travels the longest data flow —
// Internet → cloud → smart AP → user — regardless of popularity, cache
// state, path quality, or AP storage. It inherits the cloud's success
// rate but maximizes cloud upload bytes and exposes every task to the
// AP's storage write path.
func HybridBaseline(sample []workload.Request, files []*workload.FileMeta,
	aps []*smartap.AP, seed uint64) *ODRResult {
	if len(aps) == 0 {
		panic("replay: HybridBaseline needs at least one AP")
	}
	return runBaseline(sample, files, aps, seed,
		func(task *ODRTask, set *backend.Set, req *backend.Request) {
			// The AP then pulls from the cloud, always.
			waited := task.PreDelay
			cloudThenAP(task, set.CloudThenAP, req)
			task.PreDelay += waited
		})
}

// CloudOnlyBaseline replays the sample forcing every task through the
// cloud (the pure cloud-based approach), returning the byte ledger and the
// impeded ratio for Figure 16's baseline bars.
func CloudOnlyBaseline(sample []workload.Request, files []*workload.FileMeta, seed uint64) *ODRResult {
	return runBaseline(sample, files, nil, seed,
		func(task *ODRTask, set *backend.Set, req *backend.Request) {
			f := set.Cloud.Fetch(req)
			task.Success = true
			task.PerceivedRate = f.Rate
			task.CloudBytes = float64(f.CloudBytes)
		})
}
