// Command replay runs the paper's two replay methodologies on a synthetic
// week: the §5.1 smart-AP benchmark and the §6.2 ODR evaluation, printing
// a comparative summary.
//
// Usage:
//
//	replay [-files N] [-sample N] [-seed S] [-shards N]
//	       [-tasks PATH] [-trace FILE] [-faults SPEC] [-naive]
//	       [-cache-policy NAME] [-pool-bytes N]
//	       [-metrics FORMAT] [-pprof ADDR]
//
// The week is consumed in one bounded-memory pass: requests flow past
// once to discover the populations and draw the Unicom sample, and the
// sample replays through the sharded engine — the full request log is
// never resident. -shards is a pure performance knob: results are
// byte-identical for any value. A generated week is generated on
// GOMAXPROCS workers, byte-identical to sequential generation.
//
// With -trace it replays a recorded workload trace instead of generating
// one; the format (csv, jsonl, or the seekable bin format) is
// auto-detected from the file's magic bytes, falling back to the
// extension.
//
// With -cache-policy the ODR replay's cloud pool evolves under the named
// eviction policy (lru, lfu, band, prewarm) instead of the default static
// warm set; -pool-bytes overrides the pool capacity so the policy comes
// under pressure. The pool's end-of-run state appears as odr_pool_*
// metrics in the -metrics dump.
// With -faults the ODR replay runs under the deterministic
// fault-injection layer (see internal/faults): SPEC is either a preset
// intensity ("0.25") or per-class rates
// ("transient=0.1,stagnation=0.05,churn=0.1,degraded=0.2,giveup=1h").
// Faulted replays are failure-aware by default — retries with RNG-drawn
// backoff, per-operation timeouts, circuit-breaking into the decide path.
// -naive turns the resilience policy off so injected faults fail tasks
// outright (the EXP-F baseline).
//
// With -tasks it also dumps the week simulation's task records as JSON
// Lines (the pre-downloading + fetching traces of §3). The week simulator
// needs random access to the request log, so this is the one mode that
// materializes it; combined with -trace it needs a bin trace, the one
// format that records every user's access bandwidth. The simulated cloud
// is sized from the week's file population, so with -trace the dump does
// not depend on -files.
//
// With -metrics prom|json the ODR replay runs instrumented and the merged
// metrics snapshot (decision counts, fetch histograms, backend outcomes,
// and the engine reader's time in decode, resolve and dispatch wait) is
// written to stderr after the summary; recording never changes replay
// results. With -pprof a net/http/pprof server runs for the lifetime of
// the process.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"odr/internal/cloud"
	"odr/internal/replay"
	"odr/internal/scenario"
	"odr/internal/sim"
	"odr/internal/smartap"
	"odr/internal/trace"
	"odr/internal/workload"
)

func main() {
	body := command(flag.CommandLine)
	flag.Parse()
	if err := body(); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

// command registers replay's flags on fs and returns the command body,
// to be called once fs has parsed the arguments.
func command(fs *flag.FlagSet) func() error {
	files := fs.Int("files", 20000, "unique files in the synthetic week")
	sampleN := fs.Int("sample", 1000, "replay sample size")
	seed := fs.Uint64("seed", 1, "random seed")
	shards := fs.Int("shards", 0, "replay engine shards (0 = GOMAXPROCS; results are identical for any value)")
	tasks := fs.String("tasks", "", "also dump week task records as JSONL to this path")
	tracePath := fs.String("trace", "", "replay a recorded workload trace (csv/jsonl/bin, auto-detected) instead of generating one")
	naive := fs.Bool("naive", false, "with -faults, disable the failure-aware routing policy (faults fail tasks outright)")
	common := scenario.RegisterCommon(fs)
	return func() error {
		return run(*files, *sampleN, *seed, *shards, *tasks, *tracePath, *naive, common)
	}
}

func run(files, sampleN int, seed uint64, shards int, tasksPath, tracePath string,
	naive bool, common *scenario.Common) error {
	if err := common.Validate(); err != nil {
		return err
	}
	reg := common.Registry()
	if common.Pprof != "" {
		go scenario.ServePprof(common.Pprof, log.Printf)
	}

	// One pass over the week: the census (trace files) or the generator
	// (synthetic weeks) supplies the populations, the Unicom pool is drawn
	// as requests flow past, and only -tasks retains the requests.
	tr := &workload.Trace{Span: 7 * 24 * time.Hour}
	var src workload.RequestSource
	var census *workload.Census
	if tracePath == "" {
		st, err := workload.GenerateStream(workload.DefaultConfig(files, seed), workload.DefaultStreamChunk)
		if err != nil {
			return err
		}
		tr.Files, tr.Users, tr.Span = st.Files, st.Users, st.Span
		src = st.RequestsWorkers(0)
	} else {
		f, format, closer, err := trace.OpenWorkloadFile(tracePath)
		if err != nil {
			return err
		}
		defer closer.Close()
		// csv and jsonl keep only what the paper's logs had: AccessBW is
		// zero for users who never reported it, and the week simulator
		// cannot schedule a fetch at zero bandwidth.
		if tasksPath != "" && format != "bin" {
			return fmt.Errorf("-tasks simulates the whole week and needs every user's access bandwidth, "+
				"which a %s trace does not carry: write the trace with `wgen -format bin` and replay that", format)
		}
		census = workload.NewCensus()
		src = census.Wrap(f)
	}
	pass := &passSource{src: src, keep: tasksPath != ""}
	sample, err := workload.UnicomSampleSource(pass, sampleN, seed)
	if err != nil {
		return err
	}
	if census != nil {
		if pass.n == 0 {
			return fmt.Errorf("trace %s holds no records", tracePath)
		}
		tr.Files, tr.Users = census.Files(), census.Users()
	}
	tr.Requests = pass.kept
	aps := smartap.Benchmarked()

	fmt.Printf("synthetic week: %d files, %d users, %d requests; replay sample: %d\n\n",
		len(tr.Files), len(tr.Users), pass.n, len(sample))

	spec := scenario.Spec{Seed: seed, Shards: shards, Naive: naive}
	common.ApplyTo(&spec)
	odrOpts, err := spec.ReplayOptions()
	if err != nil {
		return err
	}
	odrOpts.Metrics = reg
	bench, err := replay.RunAPBenchmarkStream(workload.NewSliceSource(sample), aps, seed, shards)
	if err != nil {
		return err
	}
	baseline := replay.CloudOnlyBaseline(sample, tr.Files, seed)
	odr := replay.RunODR(sample, tr.Files, aps, odrOpts)
	summarize(bench, baseline, odr)
	summarizeFaults(odrOpts)
	replay.PublishReaderStages(reg, odr.Engine)
	if err := scenario.DumpRegistry(os.Stderr, reg, common.Metrics); err != nil {
		return err
	}

	if tasksPath == "" {
		return nil
	}
	// Run the full week and dump its task records.
	eng := sim.New()
	c := cloud.New(cloud.DefaultConfig(float64(len(tr.Files))/cloud.FullScaleFiles, seed), eng)
	c.Prewarm(tr.Files)
	c.RunTrace(tr)
	f, err := os.Create(tasksPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteTasksJSONL(f, c.Records()); err != nil {
		return err
	}
	fmt.Printf("\nwrote %d task records to %s\n", len(c.Records()), tasksPath)
	return nil
}

// summarizeFaults appends the fault/resilience configuration to the
// summary when faults are in play, so a saved summary is
// self-describing.
func summarizeFaults(opts replay.Options) {
	if opts.Faults == nil {
		return
	}
	mode := "failure-aware (retry + breaker + fallback routing)"
	if opts.Resilience == nil {
		mode = "naive (faults fail tasks outright)"
	}
	fmt.Printf("\nfaults injected:    %s; routing %s\n", opts.Faults, mode)
}

// passSource counts the requests that flow through it and, when keep is
// set, retains them for the week simulator.
type passSource struct {
	src  workload.RequestSource
	keep bool
	n    int
	kept []workload.Request
}

func (s *passSource) Next() (int, workload.Request, bool) {
	i, req, ok := s.src.Next()
	if ok {
		s.n++
		if s.keep {
			s.kept = append(s.kept, req)
		}
	}
	return i, req, ok
}

func (s *passSource) Err() error { return s.src.Err() }

// summarize prints the comparative §5/§6.2 summary.
func summarize(bench *replay.APBench, baseline, odr *replay.ODRResult) {
	fmt.Println("== smart-AP benchmark (§5) ==")
	fmt.Printf("overall failure ratio:    %5.1f%%  (paper: 16.8%%)\n", bench.FailureRatio()*100)
	fmt.Printf("unpopular failure ratio:  %5.1f%%  (paper: 42%%)\n", bench.UnpopularFailureRatio()*100)
	fmt.Printf("speed median / mean:      %5.1f / %5.1f KBps (paper: 27 / 64)\n",
		bench.Speeds().Median()/1024, bench.Speeds().Mean()/1024)
	fmt.Printf("delay median / mean:      %5.0f / %5.0f min (paper: 77 / 402)\n",
		bench.Delays().Median(), bench.Delays().Mean())
	fmt.Println("failure causes:")
	breakdown := bench.CauseBreakdown()
	causes := make([]string, 0, len(breakdown))
	for cause := range breakdown {
		causes = append(causes, cause)
	}
	sort.Strings(causes)
	for _, cause := range causes {
		fmt.Printf("  %-12s %5.1f%%\n", cause, breakdown[cause]*100)
	}

	fmt.Println("\n== ODR evaluation (§6.2) ==")
	fmt.Printf("engine:             %d shard(s), %d tasks\n",
		odr.Engine.Shards, odr.Engine.Totals().Tasks)
	fmt.Printf("impeded fetches:    cloud %5.1f%%  ODR %5.1f%%  (paper: 28%% -> 9%%)\n",
		baseline.ImpededRatio()*100, odr.ImpededRatio()*100)
	fmt.Printf("cloud bytes:        %.3g -> %.3g  (-%.0f%%, paper: -35%%)\n",
		baseline.CloudBytes(), odr.CloudBytes(),
		(1-odr.CloudBytes()/baseline.CloudBytes())*100)
	fmt.Printf("unpopular failures: APs %5.1f%%  ODR %5.1f%%  (paper: 42%% -> 13%%)\n",
		bench.UnpopularFailureRatio()*100, odr.UnpopularFailureRatio()*100)
	fmt.Printf("B4-exposed tasks:   APs %5.1f%%  ODR %5.2f%%  (paper: avoided)\n",
		bench.B4ExposedRatio()*100, odr.B4ExposedRatio()*100)
	fmt.Printf("fetch speed median: cloud %.0f KBps  ODR %.0f KBps  (paper: 287 -> 368)\n",
		baseline.FetchSpeeds().Median()/1024, odr.FetchSpeeds().Median()/1024)
}
