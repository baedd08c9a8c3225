package replay

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"odr/internal/obs"
)

// DefaultTimelineWindow is the window width used when a TimelineConfig
// leaves it zero: fine enough to resolve the diurnal cycle (four windows
// per day), coarse enough that a week is 28 rows.
const DefaultTimelineWindow = 6 * time.Hour

// MetricReplayImpeded counts completed tasks whose perceived speed fell
// below the HD threshold. It exists only in timeline window registries —
// whole-run registries derive the ratio from the result summary — and
// turns each window into a Figure 16 bar on the trace clock.
const MetricReplayImpeded = "odr_replay_impeded_total"

// TimelineConfig shapes a windowed replay timeline on the trace clock.
type TimelineConfig struct {
	// Window is the snapshot width; non-positive selects
	// DefaultTimelineWindow.
	Window time.Duration
	// Span is the trace duration the windows cover; non-positive selects
	// the default 7-day week. Tasks past the span land in the last
	// window rather than being dropped.
	Span time.Duration
}

func (c TimelineConfig) normalized() TimelineConfig {
	if c.Window <= 0 {
		c.Window = DefaultTimelineWindow
	}
	if c.Span <= 0 {
		c.Span = 7 * 24 * time.Hour
	}
	if c.Window > c.Span {
		c.Window = c.Span
	}
	return c
}

func (c TimelineConfig) numWindows() int {
	return int((c.Span + c.Window - 1) / c.Window)
}

// Timeline is a replay's windowed observability: one obs registry per
// trace-clock window, each fed exactly the tasks whose request time falls
// inside it. Windows carry the same decision/stagnation counters and
// fetch/pre-delay histograms as the whole-run registry, plus per-window
// task/failure/impeded totals, so a timeline is the run's metrics
// re-told as a story over time.
//
// A replay builds its timeline as it records its run metrics: each shard
// tallies the tasks it finishes by window, and the tallies are summed
// window by window once the shards have exited (foldTallies), the run
// registry being the sum of the windows. Every quantity is an integer
// sum over a set of tasks that does not depend on which shard ran which
// task, so window snapshots are byte-identical under every engine
// configuration (TestReplayDeterminism pins this), and equal to
// BuildTimeline over the merged task slice.
type Timeline struct {
	// Window and Span echo the (normalized) config the timeline was
	// built with.
	Window time.Duration
	Span   time.Duration

	// regs[w] is window w's registry; nil for windows no task touched
	// (their snapshots read as empty).
	regs []*obs.Registry
}

// NewTimeline returns an empty timeline with the config's window
// geometry — the identity element for Merge.
func NewTimeline(cfg TimelineConfig) *Timeline {
	cfg = cfg.normalized()
	return &Timeline{Window: cfg.Window, Span: cfg.Span, regs: make([]*obs.Registry, cfg.numWindows())}
}

// BuildTimeline buckets the task records into windowed registries: the
// timeline a replay with cfg builds, recomputed from its tasks. It runs
// over any task slice (per-shard task subsets build partial timelines
// that Merge back into the whole).
func BuildTimeline(tasks []ODRTask, cfg TimelineConfig) *Timeline {
	tl := NewTimeline(cfg)
	ts := newTaskTallies(1, false, tl)
	for i := range tasks {
		ts[0].record(&tasks[i], tasks[i].Success)
	}
	foldTallies(ts, nil, tl)
	return tl
}

// NumWindows returns the number of windows the timeline covers.
func (tl *Timeline) NumWindows() int { return len(tl.regs) }

// WindowStart returns the trace-clock start of window w.
func (tl *Timeline) WindowStart(w int) time.Duration {
	return time.Duration(w) * tl.Window
}

// Snapshot freezes window w's values (empty for untouched windows).
func (tl *Timeline) Snapshot(w int) *obs.Snapshot { return tl.regs[w].Snapshot() }

// Snapshots freezes every window in order.
func (tl *Timeline) Snapshots() []*obs.Snapshot {
	out := make([]*obs.Snapshot, len(tl.regs))
	for w := range tl.regs {
		out[w] = tl.regs[w].Snapshot()
	}
	return out
}

// Merge folds another timeline of identical geometry into this one,
// window by window, using the registry's commutative merge — the same
// mechanism that folds per-shard run registries, so merging per-shard
// partial timelines reproduces the full-slice timeline exactly.
func (tl *Timeline) Merge(o *Timeline) error {
	if o == nil {
		return nil
	}
	if tl.Window != o.Window || tl.Span != o.Span || len(tl.regs) != len(o.regs) {
		return fmt.Errorf("replay: timeline geometry mismatch: %v/%v/%d vs %v/%v/%d",
			tl.Window, tl.Span, len(tl.regs), o.Window, o.Span, len(o.regs))
	}
	for w, src := range o.regs {
		if src == nil {
			continue
		}
		if tl.regs[w] == nil {
			tl.regs[w] = obs.NewRegistry()
		}
		tl.regs[w].Merge(src)
	}
	return nil
}

// WindowStats is one window's derived headline numbers, the row format
// of the CSV emitter and the matrix runner's degradation reports.
type WindowStats struct {
	Window     int           `json:"window"`
	Start      time.Duration `json:"start"`
	Tasks      uint64        `json:"tasks"`
	Failures   uint64        `json:"failures"`
	Impeded    uint64        `json:"impeded"`
	FailRatio  float64       `json:"fail_ratio"`
	FetchBytes uint64        `json:"fetch_bytes"`
	// MeanPreDelaySeconds averages the availability delay histogram
	// (whole seconds) over the tasks that waited.
	MeanPreDelaySeconds float64 `json:"mean_predelay_seconds"`
}

// Stats derives window w's headline numbers from its snapshot.
func (tl *Timeline) Stats(w int) WindowStats {
	snap := tl.Snapshot(w)
	ws := WindowStats{
		Window:   w,
		Start:    tl.WindowStart(w),
		Tasks:    snap.Counters[MetricReplayTasks],
		Failures: snap.Counters[MetricReplayFailures],
		Impeded:  snap.Counters[MetricReplayImpeded],
	}
	if ws.Tasks > 0 {
		ws.FailRatio = float64(ws.Failures) / float64(ws.Tasks)
	}
	ws.FetchBytes = snap.Histograms[MetricFetchBytes].Sum
	if pd := snap.Histograms[MetricPreDelaySeconds]; pd.Count > 0 {
		ws.MeanPreDelaySeconds = float64(pd.Sum) / float64(pd.Count)
	}
	return ws
}

// WorstWindow returns the stats of the window with the highest failure
// ratio among windows that saw at least one task (ties to the earliest),
// and false if no window saw any. It is the single number degradation
// reports lead with: when did it hurt most, and how badly.
func (tl *Timeline) WorstWindow() (WindowStats, bool) {
	var worst WindowStats
	found := false
	for w := range tl.regs {
		ws := tl.Stats(w)
		if ws.Tasks == 0 {
			continue
		}
		if !found || ws.FailRatio > worst.FailRatio {
			worst, found = ws, true
		}
	}
	return worst, found
}

// WriteTimelineCSV emits one row per window with the derived headline
// numbers. Formatting uses strconv's shortest-round-trip floats, so equal
// timelines always serialize to identical bytes.
func WriteTimelineCSV(w io.Writer, tl *Timeline) error {
	if _, err := io.WriteString(w,
		"window,start_hours,tasks,failures,impeded,fail_ratio,fetch_bytes,mean_predelay_seconds\n"); err != nil {
		return err
	}
	for i := range tl.regs {
		ws := tl.Stats(i)
		row := strconv.Itoa(ws.Window) + "," +
			strconv.FormatFloat(ws.Start.Hours(), 'g', -1, 64) + "," +
			strconv.FormatUint(ws.Tasks, 10) + "," +
			strconv.FormatUint(ws.Failures, 10) + "," +
			strconv.FormatUint(ws.Impeded, 10) + "," +
			strconv.FormatFloat(ws.FailRatio, 'g', -1, 64) + "," +
			strconv.FormatUint(ws.FetchBytes, 10) + "," +
			strconv.FormatFloat(ws.MeanPreDelaySeconds, 'g', -1, 64) + "\n"
		if _, err := io.WriteString(w, row); err != nil {
			return err
		}
	}
	return nil
}

// timelineLine is the JSONL row: the derived stats plus the full window
// snapshot for consumers that want every counter and histogram.
type timelineLine struct {
	WindowStats
	Snapshot *obs.Snapshot `json:"snapshot"`
}

// WriteTimelineJSONL emits one JSON object per window: the derived stats
// and the complete window snapshot.
func WriteTimelineJSONL(w io.Writer, tl *Timeline) error {
	enc := json.NewEncoder(w)
	for i := range tl.regs {
		if err := enc.Encode(timelineLine{WindowStats: tl.Stats(i), Snapshot: tl.Snapshot(i)}); err != nil {
			return err
		}
	}
	return nil
}
