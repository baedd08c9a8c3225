package replay

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"odr/internal/backend"
	"odr/internal/core"
	"odr/internal/faults"
	"odr/internal/obs"
	"odr/internal/workload"
)

// refRecorder is how a replay recorded a task before tallies: straight
// into a registry through memoized handles. It is the reference the
// shard tallies must reproduce.
func refRecorder(reg *obs.Registry) func(*ODRTask, bool) {
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

// refRun is the run registry's task families as the reference records
// them: every task through refRecorder, then the engine's totals.
func refRun(tasks []ODRTask) *obs.Snapshot {
	reg := obs.NewRegistry()
	rec := refRecorder(reg)
	var fails uint64
	for i := range tasks {
		rec(&tasks[i], tasks[i].Success)
		if !tasks[i].Success {
			fails++
		}
	}
	reg.Counter(MetricReplayTasks).Add(uint64(len(tasks)))
	reg.Counter(MetricReplayFailures).Add(fails)
	return reg.Snapshot()
}

// refTimeline is the timeline as the reference builds it: one registry per
// window some task falls in, fed through refRecorder, plus the window's
// task, failure and impeded counters.
func refTimeline(tasks []ODRTask, cfg TimelineConfig) []*obs.Snapshot {
	tl := NewTimeline(cfg)
	recs := make([]func(*ODRTask, bool), tl.NumWindows())
	regs := make([]*obs.Registry, tl.NumWindows())
	for i := range tasks {
		t := &tasks[i]
		w := min(max(int(t.Request.Time/tl.Window), 0), tl.NumWindows()-1)
		if recs[w] == nil {
			regs[w] = obs.NewRegistry()
			recs[w] = refRecorder(regs[w])
			regs[w].Counter(MetricReplayTasks)
			regs[w].Counter(MetricReplayFailures)
			regs[w].Counter(MetricReplayImpeded)
		}
		recs[w](t, t.Success)
		regs[w].Counter(MetricReplayTasks).Inc()
		if !t.Success {
			regs[w].Counter(MetricReplayFailures).Inc()
		} else if t.PerceivedRate < core.HDThreshold {
			regs[w].Counter(MetricReplayImpeded).Inc()
		}
	}
	out := make([]*obs.Snapshot, len(regs))
	for w, reg := range regs {
		out[w] = reg.Snapshot()
	}
	return out
}

// taskFamilies keeps the snapshot's metrics the task recording writes —
// decisions, stagnations, the three task histograms, task and failure
// counts — and drops what backends, faults, resilience and the pool
// record straight into the run registry.
func taskFamilies(s *obs.Snapshot) *obs.Snapshot {
	keep := func(name string) bool {
		base, _, _ := strings.Cut(name, "{")
		switch base {
		case MetricDecisions, MetricStagnations, MetricFetchBytes, MetricFetchSeconds,
			MetricPreDelaySeconds, MetricReplayTasks, MetricReplayFailures:
			return true
		}
		return false
	}
	out := &obs.Snapshot{Counters: map[string]uint64{}, Gauges: map[string]int64{}, Histograms: map[string]obs.HistogramSnapshot{}}
	for name, v := range s.Counters {
		if keep(name) {
			out.Counters[name] = v
		}
	}
	for name, v := range s.Histograms {
		if keep(name) {
			out.Histograms[name] = v
		}
	}
	return out
}

// TestTalliesMatchReference: the run registry and the timeline a replay
// tallies in its shards equal what the reference recorder builds from the
// merged tasks, and the timeline equals BuildTimeline's — at 1, 2 and 7
// shards, two chunk sizes, with metrics and timeline each on and off. The
// replay is bench's stress shape (band pool under pressure, faults with
// resilience), so decisions, stagnations and every histogram are fed. An
// empty replay and one of three records at seven shards, most of them
// idle, keep the families a run registry has always had: the histograms
// and totals even with nothing in them, and windows no task fell in empty.
func TestTalliesMatchReference(t *testing.T) {
	f := setup(t)
	cfg := TimelineConfig{Window: 6 * time.Hour}
	same := f.sample[0].User
	var three []workload.Request
	for _, r := range f.sample {
		if r.User == same && len(three) < 3 {
			three = append(three, r)
		}
	}
	for _, in := range []struct {
		name   string
		sample []workload.Request
	}{{"sample", f.sample}, {"empty", nil}, {"three", three}} {
		for _, shards := range []int{1, 2, 7} {
			for _, chunk := range []int{3, 0} {
				for _, metrics := range []bool{false, true} {
					for _, timeline := range []bool{false, true} {
						name := fmt.Sprintf("%s/shards=%d/chunk=%d/metrics=%v/timeline=%v",
							in.name, shards, chunk, metrics, timeline)
						o := stressOptions(f, nil)
						o.Shards, o.chunk, o.Timeline = shards, chunk, nil
						if metrics {
							o.Metrics = obs.NewRegistry()
						}
						if timeline {
							o.Timeline = &cfg
						}
						res := RunODR(in.sample, f.trace.Files, f.aps, o)
						if metrics {
							got, want := taskFamilies(o.Metrics.Snapshot()), taskFamilies(refRun(res.Tasks))
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: run registry\n%s\nwant\n%s", name, snapJSON(t, got), snapJSON(t, want))
							}
						}
						if timeline != (res.Timeline != nil) {
							t.Fatalf("%s: timeline present = %v", name, res.Timeline != nil)
						}
						if !timeline {
							continue
						}
						got, built := res.Timeline.Snapshots(), BuildTimeline(res.Tasks, cfg).Snapshots()
						want := refTimeline(res.Tasks, cfg)
						for w := range want {
							if !reflect.DeepEqual(got[w], want[w]) || !reflect.DeepEqual(built[w], want[w]) {
								t.Fatalf("%s: window %d\ntallied %s\nbuilt %s\nwant %s", name, w,
									snapJSON(t, got[w]), snapJSON(t, built[w]), snapJSON(t, want[w]))
							}
						}
					}
				}
			}
		}
	}
}

// threeOfOneUser is the first three records of the sample's first user:
// a replay at seven shards of them leaves most shards idle.
func threeOfOneUser(sample []workload.Request) []workload.Request {
	var three []workload.Request
	for _, r := range sample {
		if r.User == sample[0].User && len(three) < 3 {
			three = append(three, r)
		}
	}
	return three
}

// TestFleetTalliesMatchSharedHandles: the backend, fault and resilience
// counts each engine shard tallies and the engine folds after its
// barrier equal what the same replay records straight into the shared
// ledgers, metric handles and wrapper counters (Options.untallied):
// every registry value but the scheduling-dependent in-flight peak —
// odr_circuit_state included, which reads the folded latest trace time —
// and every ledger. It runs bench's stress shape and
// TestReplayPopulationEdges' breakers variant, at 1, 2 and 7 shards and
// two chunk sizes, over the sample, an empty replay and three records.
func TestFleetTalliesMatchSharedHandles(t *testing.T) {
	f := setup(t)
	harsh := faults.Spec{Transient: 0.6, Stagnation: 0.3}
	breakers := stressOptions(f, nil)
	breakers.Faults = &harsh
	breakers.Resilience = &backend.RetryPolicy{MaxAttempts: 1, BreakerThreshold: 2}
	for _, shape := range []struct {
		name string
		opts Options
	}{{"stress", stressOptions(f, nil)}, {"breakers", breakers}} {
		for _, in := range []struct {
			name   string
			sample []workload.Request
		}{{"sample", f.sample}, {"empty", nil}, {"three", threeOfOneUser(f.sample)}} {
			for _, shards := range []int{1, 2, 7} {
				for _, chunk := range []int{3, 0} {
					name := fmt.Sprintf("%s/%s/shards=%d/chunk=%d", shape.name, in.name, shards, chunk)
					run := func(untallied bool) (*obs.Snapshot, []LedgerCounts) {
						o := shape.opts
						o.Shards, o.chunk, o.untallied = shards, chunk, untallied
						o.Metrics = obs.NewRegistry()
						res := RunODR(in.sample, f.trace.Files, f.aps, o)
						return outcomeSnapshot(o.Metrics), res.Ledgers()
					}
					got, gotLedgers := run(false)
					want, wantLedgers := run(true)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: tallied registry\n%s\nshared handles\n%s", name, snapJSON(t, got), snapJSON(t, want))
					}
					if !reflect.DeepEqual(gotLedgers, wantLedgers) {
						t.Fatalf("%s: tallied ledgers %+v, shared %+v", name, gotLedgers, wantLedgers)
					}
					if in.name != "sample" {
						continue
					}
					// The sample feeds the counts the tallies carry: the stress
					// shape retries, the breakers shape opens circuits and
					// leaves some open.
					families := []string{faults.MetricInjected, "odr_backend_fetches_total", backend.MetricRetries}
					if shape.name == "breakers" {
						families = []string{faults.MetricInjected, "odr_backend_fetches_total", backend.MetricCircuitOpens}
						if familyGauges(got, backend.MetricCircuitState) == 0 {
							t.Fatalf("%s: no circuit left open", name)
						}
					}
					for _, family := range families {
						if familyTotal(got, family) == 0 {
							t.Fatalf("%s: no %s counted", name, family)
						}
					}
				}
			}
		}
	}
}

// familyTotal sums a counter family's values in s.
func familyTotal(s *obs.Snapshot, family string) uint64 {
	var n uint64
	for name, v := range s.Counters {
		if base, _, _ := strings.Cut(name, "{"); base == family {
			n += v
		}
	}
	return n
}

// familyGauges sums a gauge family's values in s.
func familyGauges(s *obs.Snapshot, family string) int64 {
	var n int64
	for name, v := range s.Gauges {
		if base, _, _ := strings.Cut(name, "{"); base == family {
			n += v
		}
	}
	return n
}
