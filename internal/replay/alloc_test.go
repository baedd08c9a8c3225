//go:build !race

package replay

import (
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"odr/internal/core"
	"odr/internal/workload"
)

// TestStreamSteadyStateAllocs is the allocation regression gate for the
// stream hot path (wired into `make check`): the marginal allocation cost
// of one additional replayed request must stay at or below one object.
//
// Measuring allocs/request directly would drown in the per-run setup
// (backend fleet, warm pool, per-file memoized outcomes), so the gate
// differences two stream lengths over the same population: setup cost
// appears in both runs and cancels, leaving the steady-state slope
// (mallocs(n2) - mallocs(n1)) / (n2 - n1). GC bookkeeping inflates the
// counter nondeterministically, so the gate takes the minimum slope over
// a few repeats — the cleanest run bounds what the code actually does.
// The file is excluded under -race: instrumentation allocates per
// tracked access and would measure the detector, not the hot path.
func TestStreamSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs full-length streams")
	}
	f := setup(t)
	const n1, n2 = 2000, 12000
	if len(f.trace.Requests) < n2 {
		t.Fatalf("trace has %d requests, want %d", len(f.trace.Requests), n2)
	}

	measure := func(n int) float64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunODRStream(workload.NewSliceSource(f.trace.Requests[:n]),
			f.trace.Files, f.aps, Options{Seed: 424242, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if len(res.Tasks) != n {
			t.Fatalf("replayed %d of %d tasks", len(res.Tasks), n)
		}
		return float64(after.Mallocs) - float64(before.Mallocs)
	}

	const budget = 1.0
	measure(n2) // warm any lazy process-wide state before judging
	bestSlope := -1.0
	for rep := 0; rep < 3; rep++ {
		slope := (measure(n2) - measure(n1)) / float64(n2-n1)
		if bestSlope < 0 || slope < bestSlope {
			bestSlope = slope
		}
		if bestSlope <= budget {
			break
		}
	}
	t.Logf("steady-state allocation slope: %.4f objects/request (budget %.1f)", bestSlope, budget)
	if bestSlope > budget {
		t.Fatalf("stream hot path allocates %.2f objects per request, budget is %.1f — "+
			"something on the per-request path started allocating", bestSlope, budget)
	}
}

// TestDigestAllocs is the streamed digest's allocation gate (wired into
// `make allocgate`): WriteDigest allocates its goroutines, channels and
// chunk buffers, all bounded by GOMAXPROCS, and nothing per task — so
// 20k and 200k records to io.Discard make the same number of
// allocations. GOMAXPROCS is pinned so both lengths run the parallel
// path with every lane busy. A blocked channel operation takes its wait
// record from a per-P cache that a collection empties, so the gate runs
// with the collector off, after a warm-up, and takes the fewest
// allocations over a few repeats, as TestStreamSteadyStateAllocs does.
func TestDigestAllocs(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	recs := DigestRecords(digestTasks(200_000))
	for i := range recs {
		recs[i].Route %= core.Route(core.NumRoutes) // an out-of-range route's name is formatted afresh
	}
	ledgers := []LedgerCounts{{Name: "cloud", Fetches: 3}}
	measure := func(n int) uint64 {
		best := uint64(math.MaxUint64)
		for rep := 0; rep < 20; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := WriteDigest(io.Discard, [][]DigestRecord{recs[:n]}, ledgers, ShardTotals{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	measure(200_000) // warm the goroutine and wait-record caches before judging
	small, large := measure(20_000), measure(200_000)
	t.Logf("WriteDigest allocations: %d at 20k records, %d at 200k (GOMAXPROCS %d)", small, large, procs)
	if small != large {
		t.Fatalf("WriteDigest made %d allocations for 20k records and %d for 200k: something allocates per task or per chunk",
			small, large)
	}
	if bound := uint64(16 * procs); large > bound {
		t.Fatalf("WriteDigest made %d allocations at GOMAXPROCS %d, bound %d", large, procs, bound)
	}
}
