// Package replay implements the paper's two replay methodologies: the
// §5.1 smart-AP benchmark (a 1000-request Unicom sample split across the
// three APs and replayed under each request's recorded access bandwidth)
// and the §6.2 ODR evaluation (the same sample replayed through the ODR
// decision procedure against a warmed cloud). Both run on a sharded,
// deterministic parallel engine (see engine.go) over the pluggable
// backend layer in odr/internal/backend.
package replay

import (
	"odr/internal/backend"
	"odr/internal/smartap"
	"odr/internal/stats"
	"odr/internal/workload"
)

// EnvCap is the benchmark environment's 20 Mbps ADSL ceiling: no replayed
// transfer can beat it (§5.1, Figure 17's max).
const EnvCap = 2.5 * 1024 * 1024

// APTask is one replayed request on one AP.
type APTask struct {
	Request workload.Request
	APName  string
	Result  smartap.Result
	// B4Exposed reports whether the task ran on an AP whose storage
	// write ceiling sits below the usable access bandwidth — the
	// precondition for Bottleneck 4.
	B4Exposed bool
}

// APBench is the outcome of the §5 benchmark.
type APBench struct {
	Tasks []APTask
	// Engine records how the sharded engine executed the run.
	Engine EngineStats
}

// RunAPBenchmark is RunAPBenchmarkStream over an in-memory sample, sharded
// at GOMAXPROCS.
func RunAPBenchmark(sample []workload.Request, aps []*smartap.AP, seed uint64) *APBench {
	return overSlice(RunAPBenchmarkStream(workload.NewSliceSource(sample), aps, seed, 0))
}

// apTask builds the §5 benchmark's task callback: one pre-download on the
// request's AP, recorded into the engine-pooled task slot.
func apTask(be *backend.SmartAP) func(int, workload.Request, *backend.Request, *APTask) bool {
	return func(i int, wreq workload.Request, req *backend.Request, task *APTask) bool {
		pre := be.PreDownload(req)
		*task = APTask{
			Request: wreq,
			APName:  req.AP.Spec().Name,
			Result: smartap.Result{
				Success:      pre.OK,
				Rate:         pre.Rate,
				Delay:        pre.Delay,
				Traffic:      pre.Traffic,
				IOWait:       pre.IOWait,
				StorageBound: pre.StorageBound,
				Cause:        pre.Cause,
			},
			B4Exposed: backend.StorageExposed(req),
		}
		return pre.OK
	}
}

// RunAPBenchmarkStream replays a request stream across the given APs
// (round-robin, as in §5.1) with each request throttled to its user's
// recorded access bandwidth and the environment's ADSL ceiling, without
// holding the requests.
func RunAPBenchmarkStream(src workload.RequestSource, aps []*smartap.AP,
	seed uint64, shards int) (*APBench, error) {
	if len(aps) == 0 {
		panic("replay: AP benchmark needs at least one AP")
	}
	be := backend.NewSmartAP()
	b := &APBench{}
	var err error
	b.Tasks, b.Engine, err = runShardedStream(src, aps, seed, 0, shards, 0,
		nil, nil, nil, everyShard(apTask(be)))
	if err != nil {
		return nil, err
	}
	return b, nil
}

// B4ExposedRatio returns the fraction of tasks exposed to Bottleneck 4:
// routed to an AP whose storage write ceiling is below the usable access
// bandwidth.
func (b *APBench) B4ExposedRatio() float64 {
	if len(b.Tasks) == 0 {
		return 0
	}
	n := 0
	for _, t := range b.Tasks {
		if t.B4Exposed {
			n++
		}
	}
	return float64(n) / float64(len(b.Tasks))
}

// FailureRatio returns the overall pre-downloading failure ratio
// (§5.2: ≈16.8 %).
func (b *APBench) FailureRatio() float64 {
	if len(b.Tasks) == 0 {
		return 0
	}
	fails := 0
	for _, t := range b.Tasks {
		if !t.Result.Success {
			fails++
		}
	}
	return float64(fails) / float64(len(b.Tasks))
}

// UnpopularFailureRatio returns the failure ratio restricted to unpopular
// files (§5.2: ≈42 %).
func (b *APBench) UnpopularFailureRatio() float64 {
	var fails, total int
	for _, t := range b.Tasks {
		if t.Request.File.Band() != workload.BandUnpopular {
			continue
		}
		total++
		if !t.Result.Success {
			fails++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(fails) / float64(total)
}

// CauseBreakdown returns the share of failures per cause (§5.2: ≈86 %
// insufficient seeds, ≈10 % poor HTTP/FTP connections, ≈4 % client bugs).
func (b *APBench) CauseBreakdown() map[string]float64 {
	counts := map[string]int{}
	total := 0
	for _, t := range b.Tasks {
		if t.Result.Success {
			continue
		}
		counts[t.Result.Cause]++
		total++
	}
	out := make(map[string]float64, len(counts))
	for c, n := range counts {
		out[c] = float64(n) / float64(total)
	}
	return out
}

// Speeds returns the pre-downloading speed sample in bytes/second,
// including failures at 0 (Figure 13's CDF has min 0).
func (b *APBench) Speeds() *stats.Sample {
	s := stats.NewSample(len(b.Tasks))
	for _, t := range b.Tasks {
		s.Add(t.Result.Rate)
	}
	return s
}

// Delays returns the pre-downloading delay sample in minutes over
// successful tasks (Figure 14).
func (b *APBench) Delays() *stats.Sample {
	s := stats.NewSample(len(b.Tasks))
	for _, t := range b.Tasks {
		if t.Result.Success {
			s.Add(t.Result.Delay.Minutes())
		}
	}
	return s
}

// StorageBoundRatio returns the fraction of successful pre-downloads whose
// binding constraint was the storage write path (Bottleneck 4 exposure).
func (b *APBench) StorageBoundRatio() float64 {
	var bound, ok int
	for _, t := range b.Tasks {
		if !t.Result.Success {
			continue
		}
		ok++
		if t.Result.StorageBound {
			bound++
		}
	}
	if ok == 0 {
		return 0
	}
	return float64(bound) / float64(ok)
}
