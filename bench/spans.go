package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"odr/internal/workload"
)

// A span is one timed call from the benchmark into a layer's public
// functions. Spans are recorded here, around the calls, and never inside
// internal/: the program under test is the same binary code with tracing
// on or off. The layer is the name's prefix up to the first dot and is a
// package name.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = none
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer was made
	EndNS    int64  `json:"end_ns"`
	// Count is how many operations the span covers (records decoded,
	// requests answered); zero when the span is one call.
	Count int64 `json:"count,omitempty"`
	// Summed marks a span whose duration is the sum of many short calls
	// (every Next of a record source) rather than one interval; its start
	// is the first call's.
	Summed bool `json:"summed,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so workloads call it unconditionally and the untraced run pays
// one nil check per call site.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// start opens a span under parent and returns its id.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Name: name, StartNS: now, EndNS: now})
	return id
}

// end closes span id, optionally recording how many operations it covered.
func (t *tracer) end(id int, count int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
	t.spans[id-1].Count = count
}

// addSummed records a span whose time was accumulated over many calls.
func (t *tracer) addSummed(parent int, name string, first time.Time, busy time.Duration, count int64) {
	if t == nil {
		return
	}
	start := first.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, Name: name,
		StartNS: start, EndNS: start + busy.Nanoseconds(), Count: count, Summed: true,
	})
}

// addInterval records a span measured elsewhere (a child process's own
// report) with a known duration ending at end.
func (t *tracer) addInterval(parent int, name string, end time.Time, d time.Duration, count int64) {
	if t == nil {
		return
	}
	e := end.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, Name: name,
		StartNS: e - d.Nanoseconds(), EndNS: e, Count: count,
	})
}

// mark returns how many spans exist, so a caller can later ask for the
// ones recorded since.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerShares attributes the wall time of span root to layers, as
// fractions of the root's duration that sum to 1. Each span is allotted
// a duration — the root its own — and hands it down: children that fit
// get their durations and the rest is the span's self time, which goes to
// the span's layer; children that overlap (P workers at once, a summed
// span measured on another goroutine) and so add up to more than their
// parent are scaled down together to fill it exactly, leaving no self
// time. Only spans recorded after mark and descending from root count.
// The root's own self time — iteration time no layer span covers — lands
// on the root's layer.
func (t *tracer) layerShares(root, mark int) map[string]float64 {
	t.mu.Lock()
	spans := append([]span(nil), t.spans[mark:]...)
	t.mu.Unlock()

	dur := map[int]float64{}
	name := map[int]string{}
	children := map[int][]int{}
	for _, s := range spans {
		dur[s.ID] = float64(s.EndNS - s.StartNS)
		name[s.ID] = s.Name
		if s.ID != root {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := map[string]float64{}
	if dur[root] <= 0 {
		return out
	}
	// factor is what every duration under id has been scaled by so far.
	var hand func(id int, factor float64)
	hand = func(id int, factor float64) {
		allotted := dur[id] * factor
		var sum float64
		for _, c := range children[id] {
			sum += dur[c] * factor
		}
		if sum > allotted {
			factor *= allotted / sum
			sum = allotted
		}
		out[layerOf(name[id])] += (allotted - sum) / dur[root]
		for _, c := range children[id] {
			hand(c, factor)
		}
	}
	hand(root, 1)
	return out
}

// writeJSON dumps every span, ordered by start, to path.
func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	raw, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// timedSource wraps a record source and sums the time its Next calls
// take: how long the consumer waited for the producing layer. The
// consumer's span minus this is the consumer's own work.
type timedSource struct {
	src   workload.RequestSource
	first time.Time
	busy  time.Duration
	n     int64
}

func (s *timedSource) Next() (int, workload.Request, bool) {
	t0 := time.Now()
	if s.first.IsZero() {
		s.first = t0
	}
	i, req, ok := s.src.Next()
	s.busy += time.Since(t0)
	if ok {
		s.n++
	}
	return i, req, ok
}

func (s *timedSource) Err() error { return s.src.Err() }

// TotalRequests forwards the wrapped source's size hint, so a consumer
// that pre-sizes its buffers behaves the same traced or not.
func (s *timedSource) TotalRequests() int {
	if sz, ok := s.src.(workload.Sizer); ok {
		return sz.TotalRequests()
	}
	return 0
}

// traceSource wraps src for tracing when t is non-nil and returns the
// source to hand on plus a func that records the summed span.
func (t *tracer) traceSource(src workload.RequestSource, parent int, name string) (workload.RequestSource, func()) {
	if t == nil {
		return src, func() {}
	}
	ts := &timedSource{src: src}
	return ts, func() { t.addSummed(parent, name, ts.first, ts.busy, ts.n) }
}
