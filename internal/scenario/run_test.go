package scenario

import (
	"reflect"
	"testing"

	"odr/internal/obs"
	"odr/internal/replay"
)

// smallSpec is the scenario the execution tests run: small enough to
// generate in well under a second, loaded enough (faults + pressured
// policy + timeline) that every layer participates.
func smallSpec() Spec {
	return Spec{
		Files:       1500,
		Sample:      150,
		Seed:        7,
		Shards:      2,
		Faults:      "0.25",
		CachePolicy: "band",
		PoolDivisor: 12,
		WindowHours: 6,
	}
}

// outcomeSnapshot snapshots a run's registry minus the
// scheduling-dependent in-flight peak gauge, which is exempt from the
// determinism contract — see DESIGN.md, "Observability". Every registry
// comparison in this package goes through here.
func outcomeSnapshot(reg *obs.Registry) *obs.Snapshot {
	snap := reg.Snapshot()
	delete(snap.Gauges, replay.MetricInflightPeak)
	return snap
}

// sameRun compares two results through their task records, timelines,
// and registries — the registry holds every counter and histogram the run
// produced, so DeepEqual over snapshots is as strong as a digest.
func sameRun(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.ODR.Tasks) != len(b.ODR.Tasks) {
		t.Fatalf("%s: task counts %d vs %d", label, len(a.ODR.Tasks), len(b.ODR.Tasks))
	}
	if !reflect.DeepEqual(a.ODR.Tasks, b.ODR.Tasks) {
		t.Fatalf("%s: task records diverged", label)
	}
	if !reflect.DeepEqual(a.Timeline().Snapshots(), b.Timeline().Snapshots()) {
		t.Fatalf("%s: timelines diverged", label)
	}
	if !reflect.DeepEqual(outcomeSnapshot(a.Registry), outcomeSnapshot(b.Registry)) {
		t.Fatalf("%s: registries diverged", label)
	}
}

func TestRunExecutesSpec(t *testing.T) {
	res, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Days != 7 || res.Spec.Profile == "" {
		t.Fatalf("result spec not normalized: %+v", res.Spec)
	}
	if res.Files != 1500 || res.Users == 0 || res.Requests == 0 {
		t.Fatalf("workload description empty: files=%d users=%d requests=%d",
			res.Files, res.Users, res.Requests)
	}
	if len(res.ODR.Tasks) != 150 {
		t.Fatalf("replayed %d tasks, want 150", len(res.ODR.Tasks))
	}
	if res.PoolBytes <= 0 {
		t.Fatalf("PoolDivisor did not resolve: PoolBytes=%d", res.PoolBytes)
	}
	if st := res.ODR.Backends.Cloud.PoolStats(); st.Evictions == 0 {
		t.Fatal("pressured pool never evicted — divisor not applied")
	}
	if res.Registry == nil || len(res.Registry.Snapshot().Counters) == 0 {
		t.Fatal("run registry recorded nothing")
	}
	tl := res.Timeline()
	if tl == nil {
		t.Fatal("windowed spec produced no timeline")
	}
	if tl.NumWindows() != 28 {
		t.Fatalf("timeline has %d windows, want 28", tl.NumWindows())
	}
	var total uint64
	for w := 0; w < tl.NumWindows(); w++ {
		total += tl.Stats(w).Tasks
	}
	if total != 150 {
		t.Fatalf("timeline buckets %d tasks, want 150", total)
	}

	// Same spec, same numbers — and the shard count is not part of the
	// scenario's identity.
	again, err := Run(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "repeat", res, again)
	retuned := smallSpec()
	retuned.Shards = 8
	res8, err := Run(retuned)
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, "shards=8", res, res8)
}

func TestRunRejectsBadSpec(t *testing.T) {
	if _, err := Run(Spec{Profile: "bogus", Files: 100, Sample: 10}); err == nil {
		t.Fatal("Run compiled an unknown profile")
	}
	if _, err := Run(Spec{PoolBytes: 1, PoolDivisor: 1}); err == nil {
		t.Fatal("Run accepted conflicting pool sizing")
	}
}
