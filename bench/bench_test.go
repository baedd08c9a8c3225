package main

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"
	"time"
)

// root is the checkout's root as seen from this package's directory.
const root = ".."

func declared(t *testing.T) *benchmarkDecl {
	t.Helper()
	decl, err := loadDecl(root)
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

// TestDeclaration holds BENCHMARK.json to the contract the driver reads
// it under, and to this program: every workload it names must exist here
// and have a pinned digest.
func TestDeclaration(t *testing.T) {
	decl := declared(t)
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", decl.RunSeconds)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	sawSetup := false
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !sawSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	for _, m := range append(append([]metricDecl(nil), decl.EndToEnd...), decl.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range decl.PerLayer {
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	pins, err := loadPins(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
		if _, err := newRunner(w.Name, &env{}); err != nil {
			t.Error(err)
		}
		if len(pins[w.Name]) != 64 {
			t.Errorf("%s: no pinned sha256 in pinned.json", w.Name)
		}
	}
	for _, arg := range decl.Command[1:] {
		inPaths := false
		for _, p := range decl.Paths {
			inPaths = inPaths || strings.HasPrefix(arg, strings.TrimSuffix(p, "/")+"/")
		}
		if strings.Contains(arg, "/") && !inPaths {
			t.Errorf("command names %q, outside paths %v", arg, decl.Paths)
		}
	}
}

// TestSmoke runs every declared workload at toy scale — coordinator and
// server in-process, fractions of a second measured — untraced and
// traced, and checks that each run reports exactly the metrics
// BENCHMARK.json declares, with the declared units, nothing failed, and
// every end-to-end line carrying its bound and sample count.
func TestSmoke(t *testing.T) {
	decl := declared(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, w := range decl.Workloads {
		for _, trace := range []int{0, 1} {
			var out bytes.Buffer
			e := &env{P: parallelism(), seed: 11, sc: toyScale, dir: t.TempDir(), log: &out}
			o := options{workload: w.Name, seed: e.seed, seconds: 0.2, trace: trace,
				traceOut: e.dir + "/spans.json"}
			res, err := runWorkload(ctx, decl, e, o, &out)
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.Name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := decl.EndToEnd
			if trace == 1 {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics reported, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%d: %s missing", w.Name, trace, d.Name)
					continue
				}
				if got.Unit != d.Unit {
					t.Errorf("%s trace=%d: %s has unit %q, declared %q", w.Name, trace, d.Name, got.Unit, d.Unit)
				}
				if trace == 0 {
					if got.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %g, must never be 0", w.Name, d.Name, got.Value)
					}
					line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(d.Name) + `\s.*bound \d+%, n=\d+\)$`)
					if !line.Match(out.Bytes()) {
						t.Errorf("%s: the %s line lacks its bound or sample count\n%s", w.Name, d.Name, out.String())
					}
				}
			}
		}
	}
}

// TestLayerShares pins the self-time arithmetic the layer table rests on.
func TestLayerShares(t *testing.T) {
	tr := newTracer("t")
	tr.spans = []span{
		{ID: 1, Name: "bench.iteration", StartNS: 0, EndNS: 1000},
		{ID: 2, Parent: 1, Name: "replay.Run", StartNS: 100, EndNS: 900},
		{ID: 3, Parent: 2, Name: "trace.Next", StartNS: 100, EndNS: 300, Summed: true},
		{ID: 4, Parent: 0, Name: "replay.Other", StartNS: 0, EndNS: 5000}, // not under the root
	}
	check := func(got, want map[string]float64) {
		t.Helper()
		for layer, share := range want {
			if d := got[layer] - share; d > 1e-9 || d < -1e-9 {
				t.Errorf("%s share %g, want %g (all: %v)", layer, got[layer], share, got)
			}
		}
		for layer, share := range got {
			if _, ok := want[layer]; !ok && share != 0 {
				t.Errorf("unexpected %s share %g", layer, share)
			}
		}
	}
	check(tr.layerShares(1, 0), map[string]float64{"bench": 0.2, "replay": 0.6, "trace": 0.2})

	// Two workers overlapping inside a coordinator span of 1000 add up to
	// 1600: they are scaled to fill it, and what one of them hands its own
	// child shrinks by the same factor.
	tr.spans = []span{
		{ID: 1, Name: "bench.iteration", StartNS: 0, EndNS: 1000},
		{ID: 2, Parent: 1, Name: "distrib.coord", StartNS: 0, EndNS: 1000},
		{ID: 3, Parent: 2, Name: "distrib.worker", StartNS: 0, EndNS: 800},
		{ID: 4, Parent: 2, Name: "distrib.worker", StartNS: 200, EndNS: 1000},
		{ID: 5, Parent: 4, Name: "trace.decode", StartNS: 200, EndNS: 600},
	}
	check(tr.layerShares(1, 0), map[string]float64{"distrib": 0.75, "trace": 0.25})
}
