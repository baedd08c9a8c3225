package replay

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"odr/internal/backend"
	"odr/internal/faults"
	"odr/internal/smartap"
	"odr/internal/workload"
)

// timelineCSV renders a timeline's CSV deterministically for byte-level
// comparison.
func timelineCSV(t *testing.T, tl *Timeline) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteTimelineCSV(&b, tl); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestReplayDeterminismTimeline extends the determinism contract to the
// windowed timeline: with faults injected, failure-aware routing on, and
// the pool under policy pressure, the per-window snapshots and the CSV
// serialization stay byte-identical across shard counts and chunk
// tuning. Per-shard partial
// timelines — built from each shard's task subset — merge back into the
// full timeline exactly. The name keeps the TestReplayDeterminism
// prefix so `make determinism` runs it.
func TestReplayDeterminismTimeline(t *testing.T) {
	f := setup(t)
	spec := faults.Preset(0.25)
	pol := backend.RetryPolicy{}
	var popBytes int64
	for _, file := range f.trace.Files {
		popBytes += file.Size
	}
	pressure := popBytes / 12
	cfg := TimelineConfig{Window: 6 * time.Hour}
	opts := func(shards, chunk int) Options {
		return Options{Seed: 14, Shards: shards, chunk: chunk,
			CachePolicy: "band", PoolBytes: pressure,
			Faults: &spec, Resilience: &pol, Timeline: &cfg}
	}

	ref := RunODR(f.sample, f.trace.Files, f.aps, opts(1, 0))
	if ref.Timeline == nil {
		t.Fatal("timeline requested but not built")
	}
	wantSnaps := ref.Timeline.Snapshots()
	wantCSV := timelineCSV(t, ref.Timeline)

	// The timeline must actually carry the degradation story: a 7-day
	// window-6h geometry, tasks spread over multiple windows, failures
	// somewhere (faults are biting), and a worst window to report.
	if n := ref.Timeline.NumWindows(); n != 28 {
		t.Fatalf("NumWindows = %d, want 28 (7 days / 6 hours)", n)
	}
	active, failures := 0, uint64(0)
	var total uint64
	for w := 0; w < ref.Timeline.NumWindows(); w++ {
		ws := ref.Timeline.Stats(w)
		if ws.Tasks > 0 {
			active++
		}
		total += ws.Tasks
		failures += ws.Failures
	}
	if active < 8 {
		t.Fatalf("only %d windows saw tasks — timeline not resolving the week", active)
	}
	if total != uint64(len(f.sample)) {
		t.Fatalf("window task totals sum to %d, want %d (no task dropped or double-counted)",
			total, len(f.sample))
	}
	if failures == 0 {
		t.Fatal("no window recorded a failure at fault intensity 0.25")
	}
	if _, ok := ref.Timeline.WorstWindow(); !ok {
		t.Fatal("WorstWindow found no active window")
	}

	check := func(label string, got *ODRResult) {
		t.Helper()
		if got.Timeline == nil {
			t.Fatalf("%s: timeline requested but not built", label)
		}
		if !reflect.DeepEqual(got.Timeline.Snapshots(), wantSnaps) {
			t.Fatalf("%s: timeline snapshots diverged from the single-shard reference", label)
		}
		if csv := timelineCSV(t, got.Timeline); csv != wantCSV {
			t.Fatalf("%s: timeline CSV diverged\nfirst differing line:\n%s",
				label, firstDiff(wantCSV, csv))
		}
	}

	// Shard counts and batch sizes.
	for _, tc := range []struct {
		label         string
		shards, chunk int
	}{
		{"shards=4", 4, 0},
		{"shards=8", 8, 0},
		{"shards=4 chunk=3", 4, 3},
	} {
		check(tc.label, RunODR(f.sample, f.trace.Files, f.aps, opts(tc.shards, tc.chunk)))
	}

	// Partial timelines: partition the reference tasks the way the engine
	// partitions users across 4 shards, build one timeline per subset,
	// and merge. The merge must reproduce the full timeline exactly —
	// the same commutative-registry argument that folds per-shard run
	// registries.
	const shards = 4
	parts := make([][]ODRTask, shards)
	for i := range ref.Tasks {
		s := userShard(ref.Tasks[i].Request.User, shards)
		parts[s] = append(parts[s], ref.Tasks[i])
	}
	merged := NewTimeline(cfg)
	nonEmpty := 0
	for _, part := range parts {
		if len(part) > 0 {
			nonEmpty++
		}
		if err := merged.Merge(BuildTimeline(part, cfg)); err != nil {
			t.Fatal(err)
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("only %d shard subsets non-empty — partition test vacuous", nonEmpty)
	}
	if !reflect.DeepEqual(merged.Snapshots(), wantSnaps) {
		t.Fatal("merged per-shard partial timelines diverged from the full timeline")
	}
	if csv := timelineCSV(t, merged); csv != wantCSV {
		t.Fatalf("merged partial timelines: CSV diverged\nfirst differing line:\n%s",
			firstDiff(wantCSV, csv))
	}

	// Geometry guard: merging mismatched windows must fail loudly, not
	// silently mis-bucket.
	if err := merged.Merge(NewTimeline(TimelineConfig{Window: 12 * time.Hour})); err == nil {
		t.Fatal("Merge accepted a timeline with different geometry")
	}
	// Merging nil is the no-op identity.
	if err := merged.Merge(nil); err != nil {
		t.Fatalf("Merge(nil) = %v", err)
	}
}

// TestReplayDeterminismLongHorizon pins the whole stack past the
// historical 7-day wall: a 30-day flash-crowd trace (requests landing
// well beyond week one), a fault schedule spanning the full horizon, a
// pressured eviction policy, and a day-wide timeline all stay
// byte-identical across shard counts and batch sizes. The name keeps the TestReplayDeterminism prefix so
// `make determinism` runs it.
func TestReplayDeterminismLongHorizon(t *testing.T) {
	const days = 30
	cfg := workload.DefaultConfig(4000, 515151)
	if err := workload.ApplyProfile(&cfg, workload.ProfileFlashCrowd, days); err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sample := workload.UnicomSample(tr, 600, 515151)
	aps := smartap.Benchmarked()

	// The horizon actually matters: without the DayLoad fix every
	// request would land inside the first week.
	pastWeek := 0
	for i := range sample {
		if sample[i].Time > 7*24*time.Hour {
			pastWeek++
		}
	}
	if pastWeek == 0 {
		t.Fatal("no sampled request past day 7 — the 30-day horizon is not exercised")
	}

	spec := faults.Preset(0.25)
	spec.Span = days * 24 * time.Hour
	pol := backend.RetryPolicy{}
	var popBytes int64
	for _, file := range tr.Files {
		popBytes += file.Size
	}
	tcfg := TimelineConfig{Window: 24 * time.Hour, Span: days * 24 * time.Hour}
	opts := func(shards, chunk int) Options {
		return Options{Seed: 14, Shards: shards, chunk: chunk,
			CachePolicy: "band", PoolBytes: popBytes / 12,
			Faults: &spec, Resilience: &pol, Timeline: &tcfg}
	}

	ref := RunODR(sample, tr.Files, aps, opts(1, 0))
	want := digest(ref)
	wantSnaps := ref.Timeline.Snapshots()
	wantCSV := timelineCSV(t, ref.Timeline)

	if n := ref.Timeline.NumWindows(); n != days {
		t.Fatalf("NumWindows = %d, want %d", n, days)
	}
	lateActive := 0
	for w := 7; w < ref.Timeline.NumWindows(); w++ {
		if ref.Timeline.Stats(w).Tasks > 0 {
			lateActive++
		}
	}
	if lateActive == 0 {
		t.Fatal("no timeline window past day 7 saw a task")
	}

	for _, tc := range []struct {
		label         string
		shards, chunk int
	}{
		{"shards=4", 4, 0},
		{"shards=8 chunk=7", 8, 7},
		{"shards=4 chunk=3", 4, 3},
	} {
		got := RunODR(sample, tr.Files, aps, opts(tc.shards, tc.chunk))
		if d := digest(got); d != want {
			t.Fatalf("long-horizon %s: diverged from the single-shard reference\nfirst differing line:\n%s",
				tc.label, firstDiff(want, d))
		}
		if !reflect.DeepEqual(got.Timeline.Snapshots(), wantSnaps) {
			t.Fatalf("long-horizon %s: timeline diverged", tc.label)
		}
		if csv := timelineCSV(t, got.Timeline); csv != wantCSV {
			t.Fatalf("long-horizon %s: timeline CSV diverged\nfirst differing line:\n%s",
				tc.label, firstDiff(wantCSV, csv))
		}
	}
}

// TestTimelineWriters covers the serialization formats and the empty /
// clamped edge cases the determinism tests do not reach.
func TestTimelineWriters(t *testing.T) {
	empty := NewTimeline(TimelineConfig{})
	if empty.Window != DefaultTimelineWindow || empty.NumWindows() != 28 {
		t.Fatalf("zero config normalized to window=%v windows=%d", empty.Window, empty.NumWindows())
	}
	if _, ok := empty.WorstWindow(); ok {
		t.Fatal("empty timeline reported a worst window")
	}
	csv := timelineCSV(t, empty)
	if !strings.HasPrefix(csv, "window,start_hours,") {
		t.Fatalf("CSV header missing: %q", csv[:40])
	}
	if got := strings.Count(csv, "\n"); got != 29 {
		t.Fatalf("CSV rows = %d, want 29 (header + 28 windows)", got)
	}

	// Window wider than span clamps to one window; out-of-range task
	// times clamp to the edge windows instead of dropping.
	one := NewTimeline(TimelineConfig{Window: 48 * time.Hour, Span: 24 * time.Hour})
	if one.NumWindows() != 1 {
		t.Fatalf("clamped timeline has %d windows, want 1", one.NumWindows())
	}
	file := &workload.FileMeta{Size: 1 << 20}
	tasks := []ODRTask{
		{Request: workload.Request{Time: -time.Hour, File: file}, Success: true, PerceivedRate: 1e9},
		{Request: workload.Request{Time: 100 * 24 * time.Hour, File: file}, Success: false},
	}
	tl := BuildTimeline(tasks, TimelineConfig{Window: 48 * time.Hour, Span: 24 * time.Hour})
	ws := tl.Stats(0)
	if ws.Tasks != 2 || ws.Failures != 1 {
		t.Fatalf("clamped window stats = %+v, want 2 tasks 1 failure", ws)
	}

	var b bytes.Buffer
	if err := WriteTimelineJSONL(&b, tl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("JSONL lines = %d, want 1", len(lines))
	}
	if !strings.Contains(lines[0], `"tasks":2`) || !strings.Contains(lines[0], `"snapshot":{`) {
		t.Fatalf("JSONL line missing stats or snapshot: %s", lines[0])
	}
}
