package replay

import (
	"time"

	"odr/internal/backend"
	"odr/internal/cloud"
	"odr/internal/core"
	"odr/internal/obs"
)

// Replay metric names. Everything below odr_replay_inflight_peak is a
// pure function of the task records, so the merged values are identical
// for every shard count; the in-flight peak is the one
// scheduling-dependent signal and is exempt from that contract (see
// runShardedStream).
const (
	// MetricDecisions counts routed decisions, labeled by the backend the
	// route resolves to and ODR's reason string.
	MetricDecisions = "odr_decisions_total"
	// MetricFetchBytes is the per-task delivered-bytes histogram over
	// successful tasks.
	MetricFetchBytes = "odr_fetch_bytes"
	// MetricFetchSeconds is the user-perceived fetch duration histogram
	// (file size over perceived rate) over successful tasks.
	MetricFetchSeconds = "odr_fetch_seconds"
	// MetricPreDelaySeconds is the availability-delay histogram: how long
	// a task waited before its fetch could start.
	MetricPreDelaySeconds = "odr_predownload_delay_seconds"
	// MetricStagnations counts failed tasks by stagnation cause.
	MetricStagnations = "odr_stagnations_total"
	// MetricReplayTasks and MetricReplayFailures count the tasks replayed
	// and the tasks that failed, in the run registry and in each timeline
	// window.
	MetricReplayTasks    = "odr_replay_tasks_total"
	MetricReplayFailures = "odr_replay_failures_total"
	// MetricInflightPeak is the engine reader's channel-depth high-water
	// mark — scheduling-dependent, recorded by the reader itself, outside
	// the task tallies.
	MetricInflightPeak = "odr_replay_inflight_peak"
	// Pool metrics snapshot the cloud storage pool after the run: gauges
	// for resident state, counters (labeled by placement policy) for the
	// lookup/eviction/prefetch tallies. The pool evolves only in the
	// sequential observation pass, so every value is a pure function of
	// the request sequence — identical for any shard count or chunk size
	// and covered by the shard-merge determinism contract. A window that
	// starts inside a trace counts from the state it restored, so windows'
	// counters add up to the whole trace's.
	MetricPoolUsedBytes     = "odr_pool_used_bytes"
	MetricPoolFiles         = "odr_pool_files"
	MetricPoolHits          = "odr_pool_hits_total"
	MetricPoolMisses        = "odr_pool_misses_total"
	MetricPoolEvictions     = "odr_pool_evictions_total"
	MetricPoolHitBytes      = "odr_pool_hit_bytes_total"
	MetricPoolPrefetches    = "odr_pool_prefetches_total"
	MetricPoolPrefetchBytes = "odr_pool_prefetch_bytes_total"
	// MetricReaderStage is the engine reader's time per stage
	// (ReaderStages), in nanoseconds, labeled stage="decode", "resolve" or
	// "dispatch". It depends on scheduling, so no replay records it into
	// its own registry; PublishReaderStages sets it from the run's stats.
	MetricReaderStage = "odr_replay_reader_stage_ns"
)

// PublishReaderStages sets the reader stage gauges in reg from a run's
// engine stats. Nil-safe on reg.
func PublishReaderStages(reg *obs.Registry, st EngineStats) {
	if reg == nil {
		return
	}
	for _, s := range []struct {
		stage string
		d     time.Duration
	}{{"decode", st.Reader.Decode}, {"resolve", st.Reader.Resolve}, {"dispatch", st.Reader.Dispatch}} {
		reg.Gauge(obs.Label(MetricReaderStage, "stage", s.stage)).Set(int64(s.d))
	}
}

// recordPoolMetrics snapshots the cloud backend's storage pool into the
// replay registry once, after the run: the gauges as they stand, the
// counters less from, the pool's counters when the run began. Nil-safe on
// dst.
func recordPoolMetrics(dst *obs.Registry, c *backend.Cloud, from cloud.PoolStats) {
	if dst == nil {
		return
	}
	st := c.PoolStats()
	policy := c.PolicyLabel()
	dst.Gauge(MetricPoolUsedBytes).Set(st.Used)
	dst.Gauge(MetricPoolFiles).Set(int64(st.Files))
	dst.Counter(obs.Label(MetricPoolHits, "policy", policy)).Add(st.Hits - from.Hits)
	dst.Counter(obs.Label(MetricPoolMisses, "policy", policy)).Add(st.Misses - from.Misses)
	dst.Counter(obs.Label(MetricPoolEvictions, "policy", policy)).Add(st.Evictions - from.Evictions)
	dst.Counter(obs.Label(MetricPoolHitBytes, "policy", policy)).Add(st.HitBytes - from.HitBytes)
	dst.Counter(obs.Label(MetricPoolPrefetches, "policy", policy)).Add(st.Prefetches - from.Prefetches)
	dst.Counter(obs.Label(MetricPoolPrefetchBytes, "policy", policy)).Add(st.PrefetchBytes - from.PrefetchBytes)
}

// A replay records each task once, where it finishes: the shard that ran
// it adds it to its own tally for the task's trace-clock window — plain
// integers, no registry handle, no atomic — and once the last shard has
// exited, foldTallies sums the shards' tallies window by window into one
// registry per window (the Timeline) and into the run registry, which is
// the sum of the windows. A run with no timeline has one window spanning
// it. Every quantity is an integer sum, so the folded registries are the
// same for any shard count, chunk size or interleaving, and recording
// never touches a task's outcome.

// tally is one shard's recording of one window's tasks.
type tally struct {
	tasks, failures, impeded uint64
	// decisions and stagnations count by key index: the shard's
	// taskTally.decisions and .causes while recording, the fold's merged
	// tables once folded.
	decisions, stagnations             []uint64
	preDelay, fetchBytes, fetchSeconds obs.Counts
}

// decisionKey is what labels a decision counter: the route and ODR's
// reason string.
type decisionKey struct {
	route  core.Route
	reason string
}

// taskTally is one shard's task recorder: its tallies by window, and the
// decision and stagnation-cause keys they count by, in the order the shard
// first met them. Only the shard's goroutine writes it.
type taskTally struct {
	// width is the windows' width on the trace clock, 0 for the one window
	// of a run without a timeline.
	width     time.Duration
	tallies   []*tally
	decisions []decisionKey
	causes    []string
}

// newTaskTallies returns one recorder per shard for a run that records
// into a metrics registry, a timeline, or both, with tl's windows (one
// window when tl is nil); nil when it records neither.
func newTaskTallies(shards int, metrics bool, tl *Timeline) []*taskTally {
	if !metrics && tl == nil {
		return nil
	}
	width, windows := time.Duration(0), 1
	if tl != nil {
		width, windows = tl.Window, len(tl.regs)
	}
	out := make([]*taskTally, shards)
	for s := range out {
		out[s] = &taskTally{width: width, tallies: make([]*tally, windows)}
	}
	return out
}

// record adds one finished task; ok reports its success.
func (r *taskTally) record(t *ODRTask, ok bool) {
	w := 0
	if r.width > 0 {
		w = windowIndex(t.Request.Time, r.width, len(r.tallies))
	}
	tl := r.tallies[w]
	if tl == nil {
		// Sized for the keys the shard has met, so a tally seldom grows.
		tl = &tally{
			decisions:   make([]uint64, len(r.decisions)),
			stagnations: make([]uint64, len(r.causes)),
		}
		r.tallies[w] = tl
	}
	tl.tasks++
	tl.decisions = bump(tl.decisions, keyIndex(&r.decisions, decisionKey{t.Decision.Route, t.Decision.Reason}))
	if t.PreDelay > 0 {
		tl.preDelay.Observe(uint64(t.PreDelay / time.Second))
	}
	if !ok {
		tl.failures++
		tl.stagnations = bump(tl.stagnations, r.cause(t.Cause))
		return
	}
	if t.PerceivedRate < core.HDThreshold {
		tl.impeded++
	}
	size := uint64(t.Request.File.Size)
	tl.fetchBytes.Observe(size)
	if t.PerceivedRate > 0 {
		tl.fetchSeconds.Observe(uint64(float64(size) / t.PerceivedRate))
	}
}

// cause returns a failure cause's key index ("" counts as "unknown"),
// numbering a new cause.
func (r *taskTally) cause(c string) int {
	if c == "" {
		c = "unknown"
	}
	return keyIndex(&r.causes, c)
}

// keyIndex returns k's index in *keys, appending it when absent. A shard
// meets a handful of keys, so a scan beats hashing a reason string.
func keyIndex[K comparable](keys *[]K, k K) int {
	for i, have := range *keys {
		if have == k {
			return i
		}
	}
	*keys = append(*keys, k)
	return len(*keys) - 1
}

// bump counts one at index i, growing counts to reach it.
func bump(counts []uint64, i int) []uint64 {
	if i >= len(counts) {
		counts = append(counts, make([]uint64, i+1-len(counts))...)
	}
	counts[i]++
	return counts
}

// windowIndex is the window of n, width wide from trace time 0, that time
// at falls in; times before the first window count in it, and times past
// the last in the last.
func windowIndex(at, width time.Duration, n int) int {
	return min(max(int(at/width), 0), n-1)
}

// foldTallies sums the shards' tallies window by window. Each window some
// task fell in gets a registry in tl (when tl is non-nil) holding that
// window's decisions, stagnations, histograms and task, failure and
// impeded counts; windows no task fell in keep a nil registry. dst (when
// non-nil) receives the sum over every window: the run's decisions,
// stagnations, histograms — present even when no task fed them — and task
// and failure counts.
func foldTallies(shards []*taskTally, dst *obs.Registry, tl *Timeline) {
	if shards == nil {
		return
	}
	// Number every shard's keys in one table; dmap[s][k] is shard s's key
	// k there.
	var keys []decisionKey
	var causes []string
	dmap := make([][]int, len(shards))
	cmap := make([][]int, len(shards))
	for s, sh := range shards {
		for _, k := range sh.decisions {
			dmap[s] = append(dmap[s], keyIndex(&keys, k))
		}
		for _, c := range sh.causes {
			cmap[s] = append(cmap[s], keyIndex(&causes, c))
		}
	}
	labels := make([]string, len(keys)+len(causes))
	for k, key := range keys {
		labels[k] = obs.Label(MetricDecisions,
			"backend", backend.NameForRoute(key.route), "reason", key.reason)
	}
	for c, cause := range causes {
		labels[len(keys)+c] = obs.Label(MetricStagnations, "cause", cause)
	}
	run := tally{decisions: make([]uint64, len(keys)), stagnations: make([]uint64, len(causes))}
	win := tally{decisions: make([]uint64, len(keys)), stagnations: make([]uint64, len(causes))}
	for w := range shards[0].tallies {
		win.reset()
		for s, sh := range shards {
			if t := sh.tallies[w]; t != nil {
				win.add(t, dmap[s], cmap[s])
				run.add(t, dmap[s], cmap[s])
			}
		}
		if tl != nil && win.tasks > 0 {
			tl.regs[w] = obs.NewRegistry()
			win.fold(tl.regs[w], labels)
			tl.regs[w].Counter(MetricReplayImpeded).Add(win.impeded)
		}
	}
	if dst != nil {
		run.fold(dst, labels)
	}
}

// add sums shard tally o into t, whose key tables are the fold's: o's
// decision key k is t's dmap[k], its cause c is t's cmap[c].
func (t *tally) add(o *tally, dmap, cmap []int) {
	t.tasks += o.tasks
	t.failures += o.failures
	t.impeded += o.impeded
	for k, n := range o.decisions {
		t.decisions[dmap[k]] += n
	}
	for c, n := range o.stagnations {
		t.stagnations[cmap[c]] += n
	}
	t.preDelay.Add(&o.preDelay)
	t.fetchBytes.Add(&o.fetchBytes)
	t.fetchSeconds.Add(&o.fetchSeconds)
}

// reset zeroes t, keeping its key tables' lengths.
func (t *tally) reset() {
	clear(t.decisions)
	clear(t.stagnations)
	*t = tally{decisions: t.decisions, stagnations: t.stagnations}
}

// fold adds t to reg. labels names its decision counters, then its
// stagnation counters; a key t never counted makes no counter.
func (t *tally) fold(reg *obs.Registry, labels []string) {
	for k, n := range t.decisions {
		if n > 0 {
			reg.Counter(labels[k]).Add(n)
		}
	}
	for c, n := range t.stagnations {
		if n > 0 {
			reg.Counter(labels[len(t.decisions)+c]).Add(n)
		}
	}
	reg.Histogram(MetricPreDelaySeconds).AddCounts(t.preDelay.Sum, &t.preDelay.Buckets)
	reg.Histogram(MetricFetchBytes).AddCounts(t.fetchBytes.Sum, &t.fetchBytes.Buckets)
	reg.Histogram(MetricFetchSeconds).AddCounts(t.fetchSeconds.Sum, &t.fetchSeconds.Buckets)
	reg.Counter(MetricReplayTasks).Add(t.tasks)
	reg.Counter(MetricReplayFailures).Add(t.failures)
}
