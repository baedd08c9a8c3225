package replay

import (
	"reflect"
	"strings"
	"testing"

	"odr/internal/backend"
	"odr/internal/faults"
	"odr/internal/obs"
)

// TestReplayDeterminismFaults extends the engine's core guarantee to the
// fault-injection and resilience layers: with faults injected and the
// failure-aware policy active (retries, RNG-drawn backoff, per-user
// circuit breakers feeding the decide path), the replay digest and the
// merged metrics registry stay byte-identical for every shard count and
// chunk size. The name keeps the
// TestReplayDeterminism prefix so `make determinism` runs it.
func TestReplayDeterminismFaults(t *testing.T) {
	f := setup(t)
	spec := faults.Preset(0.4)
	pol := backend.RetryPolicy{}
	opts := func(shards, chunk int, reg *obs.Registry) Options {
		return Options{Seed: 14, Shards: shards, chunk: chunk, Metrics: reg,
			Faults: &spec, Resilience: &pol}
	}

	refReg := obs.NewRegistry()
	ref := RunODR(f.sample, f.trace.Files, f.aps, opts(1, 0, refReg))
	want := digest(ref)
	wantSnap := outcomeSnapshot(refReg)

	// Faults must actually bite for the test to mean anything: injected
	// faults recorded, some fault-class failures, some retries.
	if !hasPrefixedCounter(wantSnap, faults.MetricInjected) {
		t.Fatalf("no %s counters recorded at intensity 0.4", faults.MetricInjected)
	}
	if !hasPrefixedCounter(wantSnap, backend.MetricRetries) {
		t.Fatalf("no %s counters recorded — the resilience layer never retried", backend.MetricRetries)
	}
	var rerouted, faultCaused int
	for i := range ref.Tasks {
		switch ref.Tasks[i].Decision.Reason {
		case "circuit_open", "degraded", "retry_exhausted":
			rerouted++
		}
		if backend.IsFaultCause(ref.Tasks[i].Cause) {
			faultCaused++
		}
	}
	if rerouted == 0 {
		t.Fatal("failure-aware routing never rerouted a task at intensity 0.4")
	}

	// Shard counts × batch sizes: all reproduce the reference digest and
	// the reference metrics registry exactly.
	for _, tc := range []struct{ shards, chunk int }{
		{4, 0},
		{8, 0},
		{4, 1},
		{4, 7},
		{8, 3},
	} {
		reg := obs.NewRegistry()
		got := RunODR(f.sample, f.trace.Files, f.aps, opts(tc.shards, tc.chunk, reg))
		if d := digest(got); d != want {
			t.Fatalf("faults shards=%d chunk=%d: replay diverged from the single-shard reference\nfirst differing line:\n%s",
				tc.shards, tc.chunk, firstDiff(want, d))
		}
		if snap := outcomeSnapshot(reg); !reflect.DeepEqual(snap, wantSnap) {
			t.Fatalf("faults shards=%d chunk=%d: merged registry differs from the single-shard registry\nfirst differing line:\n%s",
				tc.shards, tc.chunk, firstDiff(snapJSON(t, wantSnap), snapJSON(t, snap)))
		}
	}

	// Naive mode (faults without the resilience policy) must be just as
	// deterministic: the injector draws only from request substreams.
	nref := RunODR(f.sample, f.trace.Files, f.aps,
		Options{Seed: 14, Shards: 1, Faults: &spec})
	nwant := digest(nref)
	if nwant == want {
		t.Fatal("naive and failure-aware replays produced identical digests — the policy did nothing")
	}
	for _, shards := range []int{4, 8} {
		got := RunODR(f.sample, f.trace.Files, f.aps,
			Options{Seed: 14, Shards: shards, Faults: &spec})
		if d := digest(got); d != nwant {
			t.Fatalf("naive faults shards=%d: diverged\nfirst differing line:\n%s",
				shards, firstDiff(nwant, d))
		}
	}
}

// hasPrefixedCounter reports whether any counter series in the snapshot
// carries the given metric name (labels follow the name in the key).
func hasPrefixedCounter(snap *obs.Snapshot, name string) bool {
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, name) && v > 0 {
			return true
		}
	}
	return false
}

// TestFaultRoutingCompletesMore is EXP-F's acceptance criterion at unit
// scope: under injected faults the failure-aware router completes
// strictly more tasks than the naive one, and without faults the two are
// identical on completions.
func TestFaultRoutingCompletesMore(t *testing.T) {
	f := setup(t)
	for _, intensity := range []float64{0.1, 0.25, 0.5} {
		spec := faults.Preset(intensity)
		naive := RunODR(f.sample, f.trace.Files, f.aps,
			Options{Seed: 14, Faults: &spec})
		aware := RunODR(f.sample, f.trace.Files, f.aps,
			Options{Seed: 14, Faults: &spec, Resilience: &backend.RetryPolicy{}})
		if aware.Completed() <= naive.Completed() {
			t.Errorf("intensity %.2f: aware completed %d, naive %d — want strictly more",
				intensity, aware.Completed(), naive.Completed())
		}
	}
	plain := RunODR(f.sample, f.trace.Files, f.aps, Options{Seed: 14})
	polOnly := RunODR(f.sample, f.trace.Files, f.aps,
		Options{Seed: 14, Resilience: &backend.RetryPolicy{}})
	if plain.Completed() != polOnly.Completed() {
		t.Errorf("fault-free: policy changed completions (%d vs %d)",
			polOnly.Completed(), plain.Completed())
	}
}
