// Command bench is the repository's benchmark: five named workloads over
// the two pipelines the paper evaluates — generate → encode → replay
// (single-process and coordinated windows) and the live decide service —
// each run checked for correct output and reported as the end-to-end
// metrics BENCHMARK.json declares, plus, in a traced run, one number per
// layer. See README.md in this directory.
//
// Usage (bench/run.sh builds everything first and passes arguments on):
//
//	bench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//	bench [--seed N] [--seconds S] [--repeat N]      every workload, N sets
//
// A single-workload run prints a human-readable report and, as its last
// line, one JSON object with the keys correct, attempted, failed and
// metrics. Without --workload the program runs every declared workload,
// each in a child process of its own so CPU and peak memory are per
// workload, and with --repeat N compares N back-to-back sets against the
// declared bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceOut string
	repeat   int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload (default: every workload, each in a child process)")
	flag.Uint64Var(&o.seed, "seed", pinnedSeed, "workload seed; the program under test only ever sees inputs generated from it")
	flag.Float64Var(&o.seconds, "seconds", 0, "seconds to measure for (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: spans around every call into a layer, the isolated per-layer loops, and the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "traced run: write the spans here as JSON (default .bench_build/trace-WORKLOAD.json)")
	flag.IntVar(&o.repeat, "repeat", 1, "without --workload: run this many full sets and fail if any two disagree by more than a metric's bound")
	flag.Parse()
	if flag.NArg() != 0 || o.trace < 0 || o.trace > 1 || o.repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT and SIGTERM cancel the context; every child process is
	// started under it and dies with it, and the deferred clean-up in run
	// still removes the scratch directory.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	code := run(ctx, o, os.Stdout)
	stop()
	os.Exit(code)
}

// run is main without the exit, so deferred clean-up always happens.
func run(ctx context.Context, o options, out io.Writer) int {
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	decl, err := loadDecl(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err, "(run from the root of a checkout)")
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = float64(decl.RunSeconds)
	}
	if o.workload == "" {
		return runSets(ctx, decl, o, out)
	}

	pins, err := loadPins(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	buildDir := filepath.Join(root, ".bench_build")
	binDir := filepath.Join(buildDir, "bin")
	for _, prog := range []string{"odrserver", "odrcoord"} {
		if _, err := os.Stat(filepath.Join(binDir, prog)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s is not built (%v); run bench/run.sh, which builds it\n", prog, err)
			return 2
		}
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	p := parallelism()
	runtime.GOMAXPROCS(p)
	e := &env{P: p, seed: o.seed, sc: fullScale, dir: dir, binDir: binDir, pins: pins, log: out}
	if o.trace == 1 && o.traceOut == "" {
		o.traceOut = filepath.Join(buildDir, "trace-"+o.workload+".json")
	}
	res, err := runWorkload(ctx, decl, e, o, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload sets a workload up, measures it, and shapes the outcome
// into the declared metrics: the end-to-end ones for an untraced run,
// the per-layer ones for a traced run.
func runWorkload(ctx context.Context, decl *benchmarkDecl, e *env, o options, out io.Writer) (*result, error) {
	known := false
	for _, w := range decl.Workloads {
		known = known || w.Name == o.workload
	}
	if !known {
		return nil, fmt.Errorf("workload %q is not declared in %s", o.workload, benchmarkFile)
	}
	w, err := newRunner(o.workload, e)
	if err != nil {
		return nil, err
	}
	printHeader(out, e, o)
	if o.trace == 1 {
		return runTraced(ctx, decl, e, w, o, out)
	}
	return runUntraced(ctx, decl, e, w, o, out)
}

func printHeader(out io.Writer, e *env, o options) {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Fprintf(out, "bench: workload %s, seed %d, %.0fs measured, trace %d\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "host: nproc %d, P %d, GOMAXPROCS %d, %s %s/%s, commit %s\n",
		runtime.NumCPU(), e.P, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
	fmt.Fprintf(out, "scale: %+v\n", e.sc)
}

// emit shapes values into a result carrying exactly the declared metrics
// and prints one line per metric. A value the declaration does not name,
// or a declared name without a value, is a bug in this program.
func emit(out io.Writer, decls []metricDecl, values map[string]float64, samples map[string]int,
	attempted, failed int64) (*result, error) {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("no value for declared metric %q", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		line := fmt.Sprintf("  %-34s %16.6g %-6s (%s is better", d.Name, v, d.Unit, d.Better)
		if d.Bound > 0 {
			line += fmt.Sprintf(", bound %.0f%%", d.Bound*100)
		}
		if n, ok := samples[d.Name]; ok {
			line += fmt.Sprintf(", n=%d", n)
		}
		fmt.Fprintln(out, line+")")
	}
	var extra []string
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("values for metrics %s does not declare: %v", benchmarkFile, extra)
	}
	return res, nil
}

// runUntraced makes Rounds rounds of set-up, measure, tear-down,
// each measuring its share of the seconds, and reports medians over the
// pooled samples. Several set-ups because one is a handful of seconds on
// a shared machine and swings accordingly; measuring on each because a
// freshly started server's throughput differs from the next one's by
// more than its own slices differ (memory layout, scheduler placement),
// and a median over three processes is steadier than any one of them.
func runUntraced(ctx context.Context, decl *benchmarkDecl, e *env, w runner, o options, out io.Writer) (*result, error) {
	var setups []float64
	var rounds []*measurement
	for i := 0; i < e.sc.Rounds; i++ {
		d, err := timeSetup(ctx, w)
		if err != nil {
			w.teardown()
			return nil, err
		}
		setups = append(setups, d)
		m, err := w.measure(ctx, o.seconds/float64(e.sc.Rounds))
		w.teardown()
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, m)
	}
	m := pool(rounds)
	values := map[string]float64{
		"setup_s":        median(setups),
		"records_per_s":  median(m.rates),
		"cpu_s_per_mrec": m.cpuSeconds / float64(m.cpuItems) * 1e6,
		"peak_rss_mb":    m.peakRSSMB,
		"wait_p50_ms":    median(m.p50s),
		"wait_p90_ms":    median(m.p90s),
	}
	samples := map[string]int{
		"setup_s":        len(setups),
		"records_per_s":  len(m.rates),
		"cpu_s_per_mrec": int(m.cpuItems),
		"peak_rss_mb":    len(rounds),
		"wait_p50_ms":    m.waitSamples,
		"wait_p90_ms":    m.waitSamples,
	}
	fmt.Fprintf(out, "result: %d rounds, %d attempted, %d failed\n", len(rounds), m.attempted, m.failed)
	fmt.Fprintln(out, "  wait_p50_ms and wait_p90_ms are medians over", len(m.p50s), "slices' quantiles; records_per_s is the median of", len(m.rates), "rates")
	for _, n := range m.notes {
		fmt.Fprintln(out, "  note (last round):", n)
	}
	return emit(out, decl.EndToEnd, values, samples, m.attempted, m.failed)
}

func timeSetup(ctx context.Context, w runner) (float64, error) {
	start := time.Now()
	err := w.setup(ctx)
	return time.Since(start).Seconds(), err
}
