package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
)

// benchmarkFile is the declaration the driver and this program share:
// workload names, metric names, units and regression bounds live there
// and nowhere else. The program refuses to print a metric the file does
// not declare, and the smoke test checks the converse.
const benchmarkFile = "BENCHMARK.json"

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkDecl struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadDecl reads BENCHMARK.json from dir (the root of the checkout).
func loadDecl(dir string) (*benchmarkDecl, error) {
	raw, err := os.ReadFile(filepath.Join(dir, benchmarkFile))
	if err != nil {
		return nil, err
	}
	var d benchmarkDecl
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s: %s name %q is malformed", benchmarkFile, kind, name)
		}
		if seen[name] {
			return fmt.Errorf("%s: name %q is used twice", benchmarkFile, name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range d.Workloads {
		if err := check("workload", w.Name); err != nil {
			return nil, err
		}
	}
	for _, m := range append(append([]metricDecl(nil), d.EndToEnd...), d.PerLayer...) {
		if err := check("metric", m.Name); err != nil {
			return nil, err
		}
	}
	if d.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: run_seconds %d", benchmarkFile, d.RunSeconds)
	}
	return &d, nil
}

// scale holds every size constant of the benchmark. The numbers are
// fixed here rather than taken from flags: two runs are comparable only
// when nobody tuned them apart. fullScale is sized so one run of any
// workload — three set-ups with their warm-ups and run_seconds of
// measuring — ends in 15 to 22 s on two cores; the driver makes over a
// hundred runs inside an hour.
type scale struct {
	// Files is the file population the shared trace is generated for
	// (about 7.2 records per file, give or take a tenth with the seed);
	// the trace the two replay workloads and coord-windows read is its
	// first Records records, so every seed is the same amount of work.
	Files, Records int
	// BuildFiles is the population of the trace trace-build plans,
	// generates and encodes afresh every iteration. The whole trace: its
	// plan phase costs by the trace's full length, so cutting the stream
	// short would not make seeds equal work. BuildNominal is the length
	// such a trace has on average; iteration walls are reported scaled to
	// it, so a seed that draws a longer week does not read as slower.
	BuildFiles, BuildNominal int
	// LedgerFiles is the population of the small trace the isolated
	// per-layer loops of a traced run use.
	LedgerFiles int
	// ServeFiles is the content universe odrserver boots with.
	ServeFiles int
	// Windows is how many record windows coord-windows tiles the trace
	// into; the worker count is P.
	Windows int
	// PoolDivisor squeezes the cloud pool to population bytes / divisor
	// wherever a dynamic cache policy runs.
	PoolDivisor int64
	// Faults is the fault-injection intensity of the stressed paths.
	Faults string
	// TimelineHours is the replay-stress timeline window width.
	TimelineHours int
	// Rate is the open-loop single-decide rate, requests per second.
	Rate float64
	// BatchItems is the closed-loop batch size.
	BatchItems int
	// Singles and Batches are how many distinct single-decide and batch
	// request bodies serve-decide cycles through.
	Singles, Batches int
	// OpenShare is the share of the measured seconds the open loop
	// takes; the closed loop takes the rest.
	OpenShare float64
	// WarmupSeconds and TracedSeconds are how long serve-decide's two
	// phases run, together, as the warm-up and as one unit of a traced
	// run.
	WarmupSeconds, TracedSeconds float64
	// MinRateShare is the share of the scheduled open-loop rate the
	// generator must achieve; below it the run fails rather than report
	// latencies at a rate it did not offer.
	MinRateShare float64
	// Rounds is how many times an untraced run sets up, measures its
	// share of the seconds, and tears down; setup_s is the median set-up.
	Rounds int
	// MinIterations keeps a median meaningful when a machine is so slow
	// that run_seconds would fit fewer.
	MinIterations int
	// LedgerOps is the loop count of the per-operation isolated loops.
	LedgerOps int
}

var fullScale = scale{
	Files:         10000,
	Records:       60000,
	BuildFiles:    5000,
	BuildNominal:  36000,
	LedgerFiles:   3000,
	ServeFiles:    8000,
	Windows:       8,
	PoolDivisor:   12,
	Faults:        "0.25",
	TimelineHours: 6,
	Rate:          2000,
	BatchItems:    256,
	Singles:       4096,
	Batches:       32,
	OpenShare:     0.6,
	WarmupSeconds: 0.5,
	TracedSeconds: 2,
	MinRateShare:  0.99,
	Rounds:        3,
	MinIterations: 3,
	LedgerOps:     200000,
}

// toyScale is what the smoke test runs: every code path, no meaningful
// numbers.
var toyScale = scale{
	Files:         300,
	Records:       1500,
	BuildFiles:    300,
	BuildNominal:  2100,
	LedgerFiles:   150,
	ServeFiles:    300,
	Windows:       4,
	PoolDivisor:   12,
	Faults:        "0.25",
	TimelineHours: 6,
	Rate:          500,
	BatchItems:    64,
	Singles:       256,
	Batches:       4,
	OpenShare:     0.5,
	WarmupSeconds: 0.1,
	TracedSeconds: 0.2,
	MinRateShare:  0.2, // a loaded test machine must not fail the smoke test
	Rounds:        1,
	MinIterations: 1,
	LedgerOps:     1000,
}

// parallelism is P, the one degree of parallelism every knob takes:
// engine shards, generation workers, coordinator workers, ingest workers
// and load-generator connections. Nothing runs wider than this.
func parallelism() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// pinnedSeed is the seed whose outputs are pinned in pinned.json.
const pinnedSeed = 7

// loadPins reads the pinned reference digests: one per workload, valid
// for pinnedSeed at fullScale.
func loadPins(dir string) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "bench", "pinned.json"))
	if err != nil {
		return nil, err
	}
	var p struct {
		Seed    uint64            `json:"seed"`
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("bench/pinned.json: %w", err)
	}
	if p.Seed != pinnedSeed {
		return nil, fmt.Errorf("bench/pinned.json pins seed %d, the program expects %d", p.Seed, pinnedSeed)
	}
	return p.Digests, nil
}
