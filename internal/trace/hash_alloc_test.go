//go:build !race

package trace

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"odr/internal/workload"
)

// TestHashAllocs gates HashWorkload's allocations (part of `make
// allocgate`): it allocates its hash, its goroutines, channels and batch
// slots, all bounded by GOMAXPROCS, and nothing per record or per batch —
// so 100 records (one batch) and 2,800 (six, on four lanes) make the same
// number of allocations. A lane buffer that grew batch by batch would
// break that.
//
// The runtime allocates beside the code under test, and how much depends
// on the scheduler: a new goroutine reuses a dead one from its P's free
// list, or from the global list, or allocates one (runtime.malg); a
// blocked channel receive or WaitGroup wait takes its wait record from its
// P's cache, or the central one, or allocates it (runtime.acquireSudog).
// Dead goroutines and wait records return to whichever P they end on, so
// the spawning P's lists drain as the work spreads over more Ps — more so
// at 2,800 records, under load. So the gate runs with the collector off
// (a collection empties the wait-record caches), stocks the global lists
// first (warmRuntime), and measures the two sizes in alternation, so both
// minima are taken over the same stretch of scheduler state. The file is
// excluded under -race: instrumentation allocates per tracked access.
func TestHashAllocs(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	reqs := sampleRequests(t, 2800)
	sizes := [2]int{100, 2800}
	mallocs := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, got, err := HashWorkload(workload.NewSliceSource(reqs[:n])); err != nil || got != n {
			t.Fatalf("hashed %d of %d records: %v", got, n, err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	warmRuntime(1024)
	mallocs(sizes[1]) // touch every lane before judging
	best := [2]uint64{math.MaxUint64, math.MaxUint64}
	for rep := 0; rep < 20; rep++ {
		for k, n := range sizes {
			best[k] = min(best[k], mallocs(n))
		}
	}
	small, large := best[0], best[1]
	t.Logf("HashWorkload allocations: %d at 100 records, %d at 2800 (GOMAXPROCS %d)", small, large, procs)
	if small != large {
		t.Fatalf("HashWorkload made %d allocations for 100 records and %d for 2800: something allocates per record or per batch",
			small, large)
	}
}

// warmRuntime parks n goroutines on one channel at once and lets them all
// exit, leaving n dead goroutines and n wait records to reuse. n well past
// what the Ps' own lists hold (64 goroutines, 128 wait records each)
// spills the rest onto the global lists, which a P whose own list is empty
// refills from instead of allocating.
func warmRuntime(n int) {
	var parked, done sync.WaitGroup
	release := make(chan struct{})
	parked.Add(n)
	done.Add(n)
	for range n {
		go func() {
			defer done.Done()
			parked.Done()
			<-release
		}()
	}
	parked.Wait()
	close(release)
	done.Wait()
}
