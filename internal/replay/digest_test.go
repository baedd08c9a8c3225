package replay

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/faults"
)

// fmtDigest is DigestOf as it was written before the strconv rewrite, kept
// verbatim as the oracle: the digest's bytes are defined as whatever these
// format strings print.
func fmtDigest(tasks []ODRTask, ledgers []LedgerCounts, tot ShardTotals) string {
	var b strings.Builder
	for i := range tasks {
		t := &tasks[i]
		fmt.Fprintf(&b, "%d|%v|%v|%q|%x|%d|%x|%v|%v\n",
			i, t.Decision.Route, t.Success, t.Cause,
			math.Float64bits(t.PerceivedRate), t.PreDelay,
			math.Float64bits(t.CloudBytes), t.StorageBound, t.B4Exposed)
	}
	for _, l := range ledgers {
		fmt.Fprintf(&b, "%s|%d|%d|%d|%d|%d\n", l.Name,
			l.PreDownloads, l.Fetches, l.Failures, l.BytesOut, l.BytesOutHP)
	}
	fmt.Fprintf(&b, "totals|%d|%d\n", tot.Tasks, tot.Failures)
	return b.String()
}

func TestDigestMatchesFmtReference(t *testing.T) {
	check := func(name string, tasks []ODRTask, ledgers []LedgerCounts, tot ShardTotals) {
		t.Helper()
		got, want := DigestOf([][]ODRTask{tasks}, ledgers, tot), fmtDigest(tasks, ledgers, tot)
		if got != want {
			t.Errorf("%s: DigestOf diverged from the fmt reference\nfirst differing line:\n%s",
				name, firstDiff(want, got))
		}
	}

	// Real replay output: every route, success and failure causes, and a
	// faulted run for the causes only injection produces.
	f := setup(t)
	storm := faults.Preset(0.5)
	for _, opts := range []Options{
		{Seed: 14, Shards: 3},
		{Seed: 14, Shards: 3, Faults: &storm},
	} {
		res := RunODR(f.sample, f.trace.Files, f.aps, opts)
		check("replay", res.Tasks, res.Ledgers(), res.Engine.Totals())
	}

	check("empty", nil, nil, ShardTotals{})

	causes := []string{
		"", "no-seeds", `say "hi"`, `back\slash`, "line\nbreak\r\ttab", "nul\x00bell\a",
		"bad-utf8-\xff\xfe", "trunc-\xe2\x82", "snow☃man", " sep", "\U0010ffff", "\x7f", "'single'", "`tick`",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64,
		math.Float64frombits(0x7ff8000000000001), // a NaN with payload
	}
	delays := []time.Duration{0, 1, -1, time.Hour, math.MinInt64, math.MaxInt64}
	routes := []core.Route{
		core.RouteUserDevice, core.RouteSmartAP, core.RouteCloud, core.RouteCloudThenAP,
		core.RouteCloudPreDownload, core.Route(core.NumRoutes), core.Route(200), core.Route(255),
	}
	var adversarial []ODRTask
	for i := 0; i < len(causes)*len(floats); i++ {
		adversarial = append(adversarial, ODRTask{
			Decision:      core.Decision{Route: routes[i%len(routes)]},
			Success:       i%2 == 0,
			Cause:         causes[i%len(causes)],
			PerceivedRate: floats[i%len(floats)],
			PreDelay:      delays[i%len(delays)],
			CloudBytes:    floats[(i/3)%len(floats)],
			StorageBound:  i%3 == 0,
			B4Exposed:     i%5 == 0,
		})
	}
	ledgers := []LedgerCounts{
		{Name: "cloud", PreDownloads: 1, Fetches: 2, Failures: 3, BytesOut: 4, BytesOutHP: 5},
		{Name: "", PreDownloads: -1, Fetches: math.MinInt64, Failures: math.MaxInt64, BytesOut: -7},
		{Name: "pipe|and\nnewline \"quoted\" %d \xff"},
	}
	check("adversarial", adversarial, ledgers, ShardTotals{Tasks: -3, Failures: math.MinInt64})
	if !strings.Contains(DigestOf([][]ODRTask{adversarial}, nil, ShardTotals{}), "|route(200)|") {
		t.Error("an out-of-range route no longer prints as route(N)")
	}
}

// digestTasks returns n tasks cycling through every route, both
// outcomes, and causes that need quoting.
func digestTasks(n int) []ODRTask {
	causes := []string{"", "no-seeds", `say "hi"`, "line\nbreak", "snow☃man"}
	tasks := make([]ODRTask, n)
	for i := range tasks {
		tasks[i] = ODRTask{
			Decision:      core.Decision{Route: core.Route(i % (core.NumRoutes + 1))},
			Success:       i%2 == 0,
			Cause:         causes[i%len(causes)],
			PerceivedRate: float64(i) * 1.5,
			PreDelay:      time.Duration(i) * time.Millisecond,
			CloudBytes:    float64(i % 7),
			StorageBound:  i%3 == 0,
			B4Exposed:     i%5 == 0,
		}
	}
	return tasks
}

// TestWriteDigestChunkBoundaries: the streamed digest is the fmt-defined
// one at every chunk boundary, for both task shapes, whether it formats
// on one goroutine or several, and whether the records come as one run or
// split into several — cut at a chunk boundary, inside a chunk, around a
// run of one record and an empty run — as the distributed merge hands in
// its windows' records.
func TestWriteDigestChunkBoundaries(t *testing.T) {
	ledgers := []LedgerCounts{{Name: "cloud", PreDownloads: 1, Fetches: 2, Failures: 3, BytesOut: 4, BytesOutHP: 5}}
	tot := ShardTotals{Tasks: 9, Failures: 2}
	all := digestTasks(3*digestChunk + 7)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, digestChunk - 1, digestChunk, digestChunk + 1, 3*digestChunk + 7} {
			tasks := all[:n]
			records := DigestRecords(tasks)
			want := fmtDigest(tasks, ledgers, tot)
			var viaTasks, viaRecords strings.Builder
			if err := WriteDigest(&viaTasks, [][]ODRTask{tasks}, ledgers, tot); err != nil {
				t.Fatal(err)
			}
			if err := WriteDigest(&viaRecords, [][]DigestRecord{records}, ledgers, tot); err != nil {
				t.Fatal(err)
			}
			got := map[string]string{
				"WriteDigest(tasks)":   viaTasks.String(),
				"WriteDigest(records)": viaRecords.String(),
				"DigestOf(records)":    DigestOf([][]DigestRecord{records}, ledgers, tot),
			}
			if n > digestChunk+1 {
				// Cuts at a chunk boundary, one record past it, and one
				// record inside the next chunk, with an empty run between.
				cuts := []int{0, digestChunk, digestChunk + 1, digestChunk + 1, digestChunk + 2, n}
				var runs [][]DigestRecord
				var taskRuns [][]ODRTask
				for k := 1; k < len(cuts); k++ {
					runs = append(runs, records[cuts[k-1]:cuts[k]])
					taskRuns = append(taskRuns, tasks[cuts[k-1]:cuts[k]])
				}
				got["DigestOf(record runs)"] = DigestOf(runs, ledgers, tot)
				got["DigestOf(task runs)"] = DigestOf(taskRuns, ledgers, tot)
			}
			for name, got := range got {
				if got != want {
					t.Errorf("GOMAXPROCS %d, %d tasks: %s diverged from the fmt reference\nfirst differing line:\n%s",
						procs, n, name, firstDiff(want, got))
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// failAfter accepts k bytes, then fails every write.
type failAfter struct {
	left       int
	err        error
	lateWrites int // writes after the first failure
	failed     bool
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.failed {
		w.lateWrites++
		return 0, w.err
	}
	if len(p) > w.left {
		w.failed = true
		return w.left, w.err
	}
	w.left -= len(p)
	return len(p), nil
}

// TestWriteDigestStopsOnWriteError: a failing writer stops the digest —
// WriteDigest returns the writer's error, writes nothing more, and leaves
// no formatting goroutine behind.
func TestWriteDigestStopsOnWriteError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tasks := digestTasks(20 * digestChunk)
	ledgers := []LedgerCounts{{Name: "cloud"}}
	full := len(DigestOf([][]ODRTask{tasks}, ledgers, ShardTotals{}))
	lines := len(DigestOf([][]ODRTask{tasks}, nil, ShardTotals{})) - len("totals|0|0\n")
	errDisk := errors.New("disk full")
	for _, k := range []int{0, 100, full / 2, lines + 1, full - 1} {
		before := runtime.NumGoroutine()
		w := &failAfter{left: k, err: errDisk}
		if err := WriteDigest(w, [][]ODRTask{tasks}, ledgers, ShardTotals{}); !errors.Is(err, errDisk) {
			t.Fatalf("fail after %d of %d bytes: WriteDigest = %v, want the writer's error", k, full, err)
		}
		if w.lateWrites != 0 {
			t.Errorf("fail after %d bytes: %d writes after the failure", k, w.lateWrites)
		}
		// The goroutines are done once WriteDigest returns; give the
		// scheduler a moment to retire them.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("fail after %d bytes: %d goroutines before, %d after", k, before, after)
		}
	}
}

// DigestRecords projects tasks onto their digest records, in order: the
// whole-task side of the tests that hold digest records, and windows'
// in-place records, to the tasks they stand for.
func DigestRecords(tasks []ODRTask) []DigestRecord {
	out := make([]DigestRecord, len(tasks))
	for i := range tasks {
		out[i] = tasks[i].digestRecord()
	}
	return out
}
