//go:build !race

package trace

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"odr/internal/workload"
)

// TestHashAllocs gates HashWorkload's allocations (part of `make
// allocgate`): it allocates its hash, its goroutines, channels and batch
// slots, all bounded by GOMAXPROCS, and nothing per record or per batch —
// so 100 records (one batch) and 2,800 (six, on four lanes) make the same
// number of allocations. A lane buffer that grew batch by batch would
// break that. As in the replay digest's gate, a blocked channel operation
// takes its wait record from a per-P cache that a collection empties, so
// the gate runs with the collector off, after a warm-up, and takes the
// fewest allocations over a few repeats. The file is excluded under -race:
// instrumentation allocates per tracked access.
func TestHashAllocs(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	reqs := sampleRequests(t, 2800)
	measure := func(n int) uint64 {
		best := uint64(math.MaxUint64)
		for rep := 0; rep < 20; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, got, err := HashWorkload(workload.NewSliceSource(reqs[:n])); err != nil || got != n {
				t.Fatalf("hashed %d of %d records: %v", got, n, err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	measure(2800) // warm the goroutine and wait-record caches before judging
	small, large := measure(100), measure(2800)
	t.Logf("HashWorkload allocations: %d at 100 records, %d at 2800 (GOMAXPROCS %d)", small, large, procs)
	if small != large {
		t.Fatalf("HashWorkload made %d allocations for 100 records and %d for 2800: something allocates per record or per batch",
			small, large)
	}
}
