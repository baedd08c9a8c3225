// Command benchjson turns `go test -bench` text output into a tracked JSON
// baseline and diffs later runs against it. It exists because this repo's
// benchmark numbers are acceptance criteria (allocs/op and requests/sec on
// the replay hot path), and criteria need a file in version control, not a
// scrollback buffer. It is a minimal, dependency-free stand-in for
// benchstat: where benchstat does significance testing across many samples,
// benchjson records per-metric min/median/max over the -count runs and
// compares medians.
//
// Exit codes: 0 ok, 1 gated regression (or I/O error), 2 bad usage,
// 3 missing baseline file, 4 no benchmark lines parsed from stdin. CI
// scripts can tell "you forgot to run `make bench-save`" (3) and "the
// bench run produced nothing" (4) from a genuine regression (1).
//
// Usage:
//
//	go test -bench ... -benchmem -count 5 ./... | benchjson -save BENCH_replay.json
//	go test -bench ... -benchmem -count 5 ./... | benchjson -compare BENCH_replay.json
//
// Save mode aggregates every benchmark line on stdin and writes the JSON
// baseline. Compare mode parses a fresh run from stdin, prints a delta
// table against the baseline, and exits nonzero if a stability-critical
// metric (allocs/op, the whole point of the hot-path work) regresses by
// more than -tol percent. Throughput metrics are reported but not gated:
// on a shared machine requests/sec is too noisy to fail CI on, while
// allocation counts are exact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Stat summarizes the -count samples of one metric of one benchmark.
type Stat struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

// Benchmark is one benchmark's aggregated metrics, keyed by unit
// ("ns/op", "allocs/op", "B/op", "requests/sec", ...).
type Benchmark struct {
	Samples int             `json:"samples"`
	Metrics map[string]Stat `json:"metrics"`
}

// Baseline is the file format: benchmark name (minus the Benchmark prefix
// and the -GOMAXPROCS suffix) to aggregated metrics.
type Baseline struct {
	GoVersion  string               `json:"go"`
	GOOS       string               `json:"goos"`
	GOARCH     string               `json:"goarch"`
	NumCPU     int                  `json:"numcpu"`
	Benchmarks map[string]Benchmark `json:"benchmarks"`
}

func main() {
	save := flag.String("save", "", "write the parsed baseline to this JSON file")
	compare := flag.String("compare", "", "diff stdin against this JSON baseline")
	tol := flag.Float64("tol", 10, "allocs/op regression tolerance in percent for -compare")
	flag.Parse()
	if (*save == "") == (*compare == "") {
		fmt.Fprintln(os.Stderr, "benchjson: exactly one of -save or -compare is required")
		os.Exit(2)
	}

	bench, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(bench) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines parsed from stdin — "+
			"pipe `go test -bench` output in (did the bench run fail, or was the regexp filter too narrow?)")
		os.Exit(4)
	}

	if *save != "" {
		base := Baseline{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			Benchmarks: summarize(bench),
		}
		out, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		out = append(out, '\n')
		if err := os.WriteFile(*save, out, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchjson: saved %d benchmarks to %s\n", len(bench), *save)
		return
	}

	raw, err := os.ReadFile(*compare)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "benchjson: baseline %s does not exist — run `make bench-save` first to record one\n", *compare)
			os.Exit(3)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *compare, err)
		os.Exit(1)
	}
	if failed := diff(base.Benchmarks, summarize(bench), *tol); failed {
		os.Exit(1)
	}
}

// benchLine matches one `go test -bench` result line. The trailing
// -GOMAXPROCS suffix is stripped so baselines survive -cpu changes.
var benchLine = regexp.MustCompile(`^Benchmark([^\s]+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parse collects metric samples per benchmark from go test output,
// ignoring every non-benchmark line (PASS, ok, make chatter).
func parse(sc *bufio.Scanner) (map[string]map[string][]float64, error) {
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	out := make(map[string]map[string][]float64)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name, rest := m[1], strings.Fields(m[3])
		if len(rest)%2 != 0 {
			return nil, fmt.Errorf("odd value/unit pairing in %q", sc.Text())
		}
		metrics := out[name]
		if metrics == nil {
			metrics = make(map[string][]float64)
			out[name] = metrics
		}
		for i := 0; i < len(rest); i += 2 {
			v, err := strconv.ParseFloat(rest[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", rest[i], sc.Text())
			}
			metrics[rest[i+1]] = append(metrics[rest[i+1]], v)
		}
	}
	return out, sc.Err()
}

func summarize(bench map[string]map[string][]float64) map[string]Benchmark {
	out := make(map[string]Benchmark, len(bench))
	for name, metrics := range bench {
		b := Benchmark{Metrics: make(map[string]Stat, len(metrics))}
		for unit, samples := range metrics {
			sort.Float64s(samples)
			b.Samples = len(samples)
			b.Metrics[unit] = Stat{
				Min:    samples[0],
				Median: samples[len(samples)/2],
				Max:    samples[len(samples)-1],
			}
		}
		out[name] = b
	}
	return out
}

// higherIsBetter marks metrics where an increase is an improvement; for
// everything else (ns/op, allocs/op, B/op) lower wins.
var higherIsBetter = map[string]bool{"requests/sec": true}

// gated metrics fail the compare when they regress past the tolerance;
// the rest are informational.
var gated = map[string]bool{"allocs/op": true}

// diff prints the median delta of every metric shared by base and fresh
// and reports whether any gated metric regressed beyond tol percent.
// Each gated regression also prints a GitHub Actions "::error::" workflow
// command, so a CI failure annotates the run with the exact benchmark and
// numbers instead of burying them in the step log (the line is harmless
// noise outside Actions).
func diff(base, fresh map[string]Benchmark, tol float64) bool {
	names := make([]string, 0, len(base))
	for name := range base {
		if _, ok := fresh[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmarks in common with the baseline")
		return true
	}

	failed := false
	var regressions []string
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, name := range names {
		fmt.Fprintf(w, "%s\n", name)
		units := make([]string, 0, len(base[name].Metrics))
		for unit := range base[name].Metrics {
			if _, ok := fresh[name].Metrics[unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			old, now := base[name].Metrics[unit].Median, fresh[name].Metrics[unit].Median
			var pct float64
			if old != 0 {
				pct = (now - old) / old * 100
			}
			worse := pct > 0
			if higherIsBetter[unit] {
				worse = pct < 0
			}
			verdict := ""
			if gated[unit] && worse && pct != 0 && abs(pct) > tol {
				verdict = "  REGRESSION"
				failed = true
				regressions = append(regressions, fmt.Sprintf(
					"%s: %s regressed %+.1f%% (median %.1f -> %.1f, tolerance %.0f%%)",
					name, unit, pct, old, now, tol))
			}
			fmt.Fprintf(w, "  %-14s %14.1f -> %14.1f  %+7.1f%%%s\n", unit, old, now, pct, verdict)
		}
	}
	if failed {
		fmt.Fprintf(w, "benchjson: gated metric regressed more than %.0f%% against the baseline\n", tol)
		for _, msg := range regressions {
			fmt.Fprintf(w, "::error title=Benchmark regression::%s\n", msg)
		}
	}
	return failed
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
