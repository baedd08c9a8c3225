package replay

import (
	"time"

	"odr/internal/backend"
	"odr/internal/core"
	"odr/internal/obs"
)

// Replay metric names. Everything below odr_replay_inflight_peak is a
// pure function of the task records, so the merged values are identical
// for every shard count; the in-flight peak is the one
// scheduling-dependent signal and is exempt from that contract (see
// engineObs).
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
	// MetricReplayTasks and MetricReplayFailures are the engine's own
	// totals, added once per run.
	MetricReplayTasks    = "odr_replay_tasks_total"
	MetricReplayFailures = "odr_replay_failures_total"
	// MetricInflightPeak is the engine reader's channel-depth high-water
	// mark — scheduling-dependent, recorded outside the shard registries.
	MetricInflightPeak = "odr_replay_inflight_peak"
	// Pool metrics snapshot the cloud storage pool after the run: gauges
	// for resident state, counters (labeled by placement policy) for the
	// lookup/eviction/prefetch tallies. The pool evolves only in the
	// sequential observation pass, so every value is a pure function of
	// the request sequence — identical for any shard count or chunk size
	// and covered by the shard-merge determinism contract.
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
// replay registry once, after the run. Nil-safe on dst.
func recordPoolMetrics(dst *obs.Registry, c *backend.Cloud) {
	if dst == nil {
		return
	}
	st := c.PoolStats()
	policy := c.PolicyLabel()
	dst.Gauge(MetricPoolUsedBytes).Set(st.Used)
	dst.Gauge(MetricPoolFiles).Set(int64(st.Files))
	dst.Counter(obs.Label(MetricPoolHits, "policy", policy)).Add(st.Hits)
	dst.Counter(obs.Label(MetricPoolMisses, "policy", policy)).Add(st.Misses)
	dst.Counter(obs.Label(MetricPoolEvictions, "policy", policy)).Add(st.Evictions)
	dst.Counter(obs.Label(MetricPoolHitBytes, "policy", policy)).Add(st.HitBytes)
	dst.Counter(obs.Label(MetricPoolPrefetches, "policy", policy)).Add(st.Prefetches)
	dst.Counter(obs.Label(MetricPoolPrefetchBytes, "policy", policy)).Add(st.PrefetchBytes)
}

// odrRecorder builds one shard's ODRTask recorder over the shard's
// private registry. Handles are resolved lazily and memoized in plain
// maps — safe because each recorder is owned by exactly one shard
// goroutine — so the steady-state cost per task is a few map hits and
// atomic adds.
func odrRecorder(reg *obs.Registry) func(*ODRTask, bool) {
	decisions := make(map[core.Route]map[string]*obs.Counter)
	stagnations := make(map[string]*obs.Counter)
	fetchBytes := reg.Histogram(MetricFetchBytes)
	fetchSeconds := reg.Histogram(MetricFetchSeconds)
	preDelay := reg.Histogram(MetricPreDelaySeconds)

	return func(t *ODRTask, ok bool) {
		byReason := decisions[t.Decision.Route]
		if byReason == nil {
			byReason = make(map[string]*obs.Counter)
			decisions[t.Decision.Route] = byReason
		}
		c := byReason[t.Decision.Reason]
		if c == nil {
			c = reg.Counter(obs.Label(MetricDecisions,
				"backend", backend.NameForRoute(t.Decision.Route),
				"reason", t.Decision.Reason))
			byReason[t.Decision.Reason] = c
		}
		c.Inc()

		if t.PreDelay > 0 {
			preDelay.Observe(uint64(t.PreDelay / time.Second))
		}
		if !ok {
			cause := t.Cause
			if cause == "" {
				cause = "unknown"
			}
			sc := stagnations[cause]
			if sc == nil {
				sc = reg.Counter(obs.Label(MetricStagnations, "cause", cause))
				stagnations[cause] = sc
			}
			sc.Inc()
			return
		}
		size := uint64(t.Request.File.Size)
		fetchBytes.Observe(size)
		if t.PerceivedRate > 0 {
			fetchSeconds.Observe(uint64(float64(size) / t.PerceivedRate))
		}
	}
}

// newODRObs wires an ODR replay's observability: nil dst (metrics off)
// yields a nil engineObs, which the engine treats as "record nothing".
func newODRObs(dst *obs.Registry) *engineObs[ODRTask] {
	if dst == nil {
		return nil
	}
	return &engineObs[ODRTask]{dst: dst, rec: odrRecorder}
}
