package replay

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"odr/internal/obs"
	"odr/internal/smartap"
	"odr/internal/trace"
	"odr/internal/workload"
)

// The benchmark trace is bigger than the test fixture: §6.2's 1000-request
// sample finishes too quickly to expose scaling, so we replay a
// 50 000-request Unicom sample over a 35 000-file population.
const (
	benchFiles = 35000
	benchReqs  = 50000
	benchSeed  = 626262
)

var (
	benchOnce   sync.Once
	benchTrace  *workload.Trace
	benchSample []workload.Request
)

func benchFixture(b *testing.B) ([]workload.Request, []*workload.FileMeta) {
	b.Helper()
	benchOnce.Do(func() {
		tr, err := workload.Generate(workload.DefaultConfig(benchFiles, benchSeed))
		if err != nil {
			b.Fatalf("generate trace: %v", err)
		}
		benchTrace = tr
		benchSample = workload.UnicomSample(tr, benchReqs, benchSeed)
	})
	if len(benchSample) < benchReqs {
		b.Fatalf("benchmark sample has %d requests, want %d", len(benchSample), benchReqs)
	}
	return benchSample, benchTrace.Files
}

// BenchmarkStreamReplay measures the engine's allocation behavior over a
// long stream: requests flow from the trace's request log through the reader
// into per-shard channels, with per-worker scratch RNGs and request
// structs. The acceptance bar is that per-request allocations are bounded
// by chunk size, not stream length — allocs/op for the 200k-request
// stream within ~2x of the 20k one after dividing by stream length. Both
// sizes replay prefixes of the same trace over the same file population,
// so the fixed setup cost (warm pool, file metadata) cancels out of the
// comparison. Peak transient request memory is the engine's in-flight
// window — shards × streamBatchDepth × chunk cells circulating between
// the work queues and free lists — reported as the inflight-reqs metric,
// next to the stream-len metric a materialized request log would keep
// resident.
// The metrics=on sub-runs quantify the observability overhead: the
// acceptance bar is ≤5% requests/sec delta against metrics=off, with
// allocs/op unchanged on the nil path.
func BenchmarkStreamReplay(b *testing.B) {
	_, files := benchFixture(b)
	aps := smartap.Benchmarked()
	for _, n := range []int{20000, 200000} {
		if len(benchTrace.Requests) < n {
			b.Fatalf("benchmark trace has %d requests, want %d", len(benchTrace.Requests), n)
		}
		sample := benchTrace.Requests[:n]
		for _, metrics := range []bool{false, true} {
			name := fmt.Sprintf("requests=%d/metrics=%v", n, metrics)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var reg *obs.Registry
					if metrics {
						reg = obs.NewRegistry()
					}
					res, err := RunODRStream(workload.NewSliceSource(sample), files, aps,
						Options{Seed: benchSeed, Shards: 4, Metrics: reg})
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Tasks) != n {
						b.Fatalf("replayed %d of %d tasks", len(res.Tasks), n)
					}
					if metrics && reg.Snapshot().Counters[MetricReplayTasks] != uint64(n) {
						b.Fatal("metrics run recorded the wrong task total")
					}
				}
				shards := 4
				b.ReportMetric(float64(shards*streamBatchDepth*streamChunk), "inflight-reqs")
				b.ReportMetric(float64(n), "stream-len")
				b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "requests/sec")
			})
		}
	}
}

// BenchmarkReplayTimeline measures the windowed-timeline overhead: the
// same 200k-request stream replay with and without a 6-hour timeline.
// Each shard tallies its own tasks by window as it finishes them, and
// the windows are folded once after the engine's barrier (foldTallies),
// so the acceptance bar is a ≤5% requests/sec delta against
// timeline=off.
func BenchmarkReplayTimeline(b *testing.B) {
	_, files := benchFixture(b)
	aps := smartap.Benchmarked()
	const n = 200000
	if len(benchTrace.Requests) < n {
		b.Fatalf("benchmark trace has %d requests, want %d", len(benchTrace.Requests), n)
	}
	sample := benchTrace.Requests[:n]
	for _, timeline := range []bool{false, true} {
		b.Run(fmt.Sprintf("timeline=%v", timeline), func(b *testing.B) {
			b.ReportAllocs()
			var cfg *TimelineConfig
			if timeline {
				cfg = &TimelineConfig{Window: 6 * time.Hour}
			}
			for i := 0; i < b.N; i++ {
				res, err := RunODRStream(workload.NewSliceSource(sample), files, aps,
					Options{Seed: benchSeed, Shards: 4, Timeline: cfg})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Tasks) != n {
					b.Fatalf("replayed %d of %d tasks", len(res.Tasks), n)
				}
				if timeline != (res.Timeline != nil) {
					b.Fatalf("timeline=%v but result timeline present=%v", timeline, res.Timeline != nil)
				}
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "requests/sec")
		})
	}
}

// BenchmarkReplayParallel sweeps the engine's shard count over the
// 50k-request sample through the slice entry (RunODR). Shards no longer
// buy much here, and that is expected: with O(1) substream seeding a
// request costs a shard worker well under a microsecond, about what the
// single reader goroutine spends pulling, observing and dispatching it,
// so one shard plus the reader already fills two cores (≈1.2× at 4
// shards on 2 vCPUs; the benchmark ledger's replay.shard_scaling ≈ 1).
// The former ">2× at 4 shards" bar was measuring math/rand's reseed,
// which parallelised perfectly. What this benchmark holds now is
// allocs/op and B/op: one result slice (≈14 MB for 50k tasks) plus a
// few transport batches per shard, whatever the shard count.
func BenchmarkReplayParallel(b *testing.B) {
	sample, files := benchFixture(b)
	aps := smartap.Benchmarked()
	shardCounts := []int{1, 4}
	if n := runtime.NumCPU(); n != 4 && n > 1 {
		shardCounts = append(shardCounts, n)
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := RunODR(sample, files, aps, Options{Seed: benchSeed, Shards: shards})
				if len(res.Tasks) != len(sample) {
					b.Fatalf("replayed %d of %d tasks", len(res.Tasks), len(sample))
				}
			}
			b.ReportMetric(float64(len(sample)*b.N)/b.Elapsed().Seconds(), "requests/sec")
		})
	}
}

// BenchmarkObserveStates times the band state pass odrcoord runs before
// its windows: ObserveStates from record 0 through the cloud's
// observation alone, emitting the state at each of eight window bases,
// under bench's replay-stress pool (band, a twelfth of the population's
// bytes). The trace is a generated 10,000-file week cut at 60,000
// records, written as a bin trace and read as a coordinated run reads
// it: the ordinal view of a trace.Bin (Bin.Ordinals), with the trace's
// census as the population. Reports ns/record.
func BenchmarkObserveStates(b *testing.B) {
	const files, records = 10000, 60000
	tr, err := workload.Generate(workload.DefaultConfig(files, 7))
	if err != nil {
		b.Fatal(err)
	}
	if len(tr.Requests) < records {
		b.Fatalf("trace has %d records, want %d", len(tr.Requests), records)
	}
	path := filepath.Join(b.TempDir(), "trace.bin")
	out, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	w := bufio.NewWriter(out)
	if err := trace.WriteWorkloadBinStream(w, workload.NewSliceSource(tr.Requests[:records])); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := out.Close(); err != nil {
		b.Fatal(err)
	}
	bin, err := trace.OpenBin(path)
	if err != nil {
		b.Fatal(err)
	}
	defer bin.Close()
	census := bin.Census().Files
	var pop int64
	for _, f := range census {
		pop += f.Size
	}
	opts := Options{Seed: 7, CachePolicy: "band", PoolBytes: pop / 12}
	bases := make([]int, 8)
	for k := range bases {
		bases[k] = k * records / len(bases)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := bin.Ordinals(0, -1)
		if err != nil {
			b.Fatal(err)
		}
		if err := ObserveStates(src, census, bin.Census().First, opts, bases, func(int, []byte) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bases[len(bases)-1]), "ns/record")
}
