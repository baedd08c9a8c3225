// Command scenario runs declarative replay scenarios and scenario
// matrices: one invocation fans a grid of {workload profile × fault
// spec × cache policy} over a shared generated trace, replays every
// cell through the sharded engine, and prints a comparison report with
// per-window degradation timelines.
//
// Usage:
//
//	scenario [-files N] [-sample N] [-seed S] [-days N] [-shards N]
//	         [-naive] [-window HOURS]
//	         [-profile NAME] [-profiles A,B] [-fault-grid "0;0.25"]
//	         [-policies lru,band] [-pool-divisor N]
//	         [-timeline-dir DIR] [-spec FILE]
//	         [-faults SPEC] [-cache-policy NAME] [-pool-bytes N]
//	         [-metrics FORMAT] [-pprof ADDR]
//
// Without grid flags it runs a single cell built from the base flags.
// Cells run one after another; each shards its replay across cores.
// -profiles and -policies take comma- or semicolon-separated lists;
// -fault-grid splits on semicolons only, because fault specs themselves
// contain commas ("transient=0.1,churn=0.05;0.25" is two specs). Axes
// left empty inherit the base value, so "-fault-grid '0;0.25'
// -policies lru,band" is a 2×2 grid over the baseline profile.
//
// Every cell with a -window (default 6 hours; 0 disables) carries a
// windowed observability timeline on the trace clock; the report's
// degradation strip shows per-window failure ratios and -timeline-dir
// writes each cell's full timeline as CSV and JSONL. -metrics dumps the
// grand-total registry merged across all cells to stderr.
//
// -spec FILE loads a complete matrix as JSON ({"base": {...},
// "profiles": [...], ...}; see internal/scenario.Matrix) and ignores the
// scenario-shaping flags; -timeline-dir, -metrics, and -pprof still
// apply.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"odr/internal/replay"
	"odr/internal/scenario"
)

func main() {
	body := command(flag.CommandLine)
	flag.Parse()
	if err := body(); err != nil {
		fmt.Fprintln(os.Stderr, "scenario:", err)
		os.Exit(1)
	}
}

// command registers scenario's flags on fs and returns the command body,
// to be called once fs has parsed the arguments.
func command(fs *flag.FlagSet) func() error {
	files := fs.Int("files", 20000, "unique files in the synthetic trace")
	sampleN := fs.Int("sample", 1000, "replay sample size")
	seed := fs.Uint64("seed", 1, "random seed")
	days := fs.Int("days", 7, "trace horizon in days")
	shards := fs.Int("shards", 0, "replay engine shards (0 = GOMAXPROCS; results are identical for any value)")
	naive := fs.Bool("naive", false, "disable failure-aware routing (faults fail tasks outright)")
	window := fs.Float64("window", 6, "timeline window in hours (0 = no timelines)")
	profile := fs.String("profile", "", "base workload profile: baseline, flash-crowd, holiday, regional-outage")
	profiles := fs.String("profiles", "", "profile axis (comma/semicolon-separated; empty = base profile)")
	faultGrid := fs.String("fault-grid", "", "fault-spec axis (semicolon-separated; empty = base -faults)")
	policies := fs.String("policies", "", "cache-policy axis (comma/semicolon-separated; empty = base -cache-policy)")
	poolDivisor := fs.Int64("pool-divisor", 0, "squeeze the cloud pool to population-bytes/N (0 = off; excludes -pool-bytes)")
	timelineDir := fs.String("timeline-dir", "", "write each cell's timeline as CSV and JSONL into this directory")
	specPath := fs.String("spec", "", "load the matrix from this JSON file instead of flags")
	common := scenario.RegisterCommon(fs)
	return func() error {
		m := scenario.Matrix{
			Base: scenario.Spec{
				Profile:     *profile,
				Days:        *days,
				Files:       *files,
				Sample:      *sampleN,
				Seed:        *seed,
				Shards:      *shards,
				Naive:       *naive,
				PoolDivisor: *poolDivisor,
				WindowHours: *window,
			},
			Profiles:      splitAxis(*profiles, true),
			FaultSpecs:    splitAxis(*faultGrid, false),
			CachePolicies: splitAxis(*policies, true),
		}
		common.ApplyTo(&m.Base)
		return run(m, *specPath, *timelineDir, common)
	}
}

func run(m scenario.Matrix, specPath, timelineDir string, common *scenario.Common) error {
	if err := common.Validate(); err != nil {
		return err
	}
	if specPath != "" {
		loaded, err := loadMatrix(specPath)
		if err != nil {
			return err
		}
		m = loaded
	}
	if common.Pprof != "" {
		go scenario.ServePprof(common.Pprof, log.Printf)
	}

	res, err := scenario.RunMatrix(m)
	if err != nil {
		return err
	}
	fmt.Print(res.Report())
	if timelineDir != "" {
		if err := writeTimelines(timelineDir, res); err != nil {
			return err
		}
	}
	return scenario.DumpRegistry(os.Stderr, res.Merged, common.Metrics)
}

// splitAxis splits a grid-axis flag into its values. Fault specs contain
// commas, so their axis splits on semicolons only; the other axes accept
// either separator.
func splitAxis(s string, commas bool) []string {
	if commas {
		s = strings.ReplaceAll(s, ",", ";")
	}
	var out []string
	for _, v := range strings.Split(s, ";") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// loadMatrix reads a Matrix JSON file.
func loadMatrix(path string) (scenario.Matrix, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return scenario.Matrix{}, err
	}
	var m scenario.Matrix
	if err := json.Unmarshal(data, &m); err != nil {
		return scenario.Matrix{}, fmt.Errorf("parse %s: %w", path, err)
	}
	return m, nil
}

// writeTimelines dumps each timeline-carrying cell as CSV and JSONL.
func writeTimelines(dir string, res *scenario.MatrixResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	wrote := 0
	for _, c := range res.Cells {
		tl := c.Timeline()
		if tl == nil {
			continue
		}
		base := filepath.Join(dir, cellFileName(c.Spec.Label()))
		if err := writeFile(base+".csv", func(f *os.File) error {
			return replay.WriteTimelineCSV(f, tl)
		}); err != nil {
			return err
		}
		if err := writeFile(base+".jsonl", func(f *os.File) error {
			return replay.WriteTimelineJSONL(f, tl)
		}); err != nil {
			return err
		}
		wrote++
	}
	fmt.Printf("\nwrote %d timeline(s) to %s\n", wrote, dir)
	return nil
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cellFileName turns a cell label into a filesystem-safe stem.
func cellFileName(label string) string {
	r := strings.NewReplacer("/", "__", " ", "_", "=", "-")
	return r.Replace(label)
}
