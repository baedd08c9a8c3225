package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"odr/internal/trace"
	"odr/internal/workload"
)

// env is what every workload is given: the parallelism, the seed, the
// sizes, a scratch directory inside the checkout, and where the built
// programs under test are.
type env struct {
	P      int
	seed   uint64
	sc     scale
	dir    string // scratch; removed when the run ends
	binDir string // odrserver and odrcoord; empty runs both in-process (smoke test)
	pins   map[string]string
	log    io.Writer
}

// checkPin compares got with the workload's pinned digest, when this
// run's inputs are the pinned ones.
func (e *env) checkPin(name, got string) error {
	if e.seed != pinnedSeed || e.sc != fullScale {
		return nil
	}
	if want := e.pins[name]; want != "" && got != want {
		return fmt.Errorf("%s: digest %s differs from the pinned %s (seed %d); "+
			"the program's output changed — if that is intended, the benchmark's pins need their own change",
			name, got, want, e.seed)
	}
	return nil
}

// sample is one timed unit: an iteration of an offline workload, or one
// phase pair of serve-decide.
type sample struct {
	wall    time.Duration
	records int64 // records or decide items the unit carried
	failed  int64
	// nominal, when set, is the record count the wall is scaled to before
	// it is reported as a wait (see scale.BuildNominal).
	nominal int64
}

// measurement is what one round's timed region produced. A run pools its
// rounds (see pool) and reports medians of the pooled lists.
type measurement struct {
	attempted, failed int64
	// p50s and p90s are quantiles of the caller-visible wait in ms, one
	// pair per slice of the round: an offline round is one slice (its
	// iteration walls), a serve-decide round has one per second of open
	// loop (single-decide latencies from their due time). waitSamples is
	// how many raw samples they rest on.
	p50s, p90s  []float64
	waitSamples int
	// rates are records per second, one per iteration, or batch items
	// per second, one per slice of closed loop.
	rates []float64
	// cpuSeconds over cpuItems gives cpu_s_per_mrec.
	cpuSeconds float64
	cpuItems   int64
	peakRSSMB  float64
	// notes are printed with the result: sample counts, generator
	// honesty, anything a reader needs to trust the numbers.
	notes []string
	// layer carries per-layer numbers a timed region measures itself
	// (the load generator's); merged into a traced run's table.
	layer map[string]float64
}

// runner is one workload. setup does everything a user would do before
// the first measured operation, warm-up included, and may be called
// again after teardown. measure is the untraced timed region. traced
// runs one short unit, recording spans under parent when tr is non-nil,
// and returns the cost (seconds, or a latency) whose traced/untraced
// ratio is the tracing overhead, plus any per-layer numbers the unit
// measures itself.
type runner interface {
	setup(ctx context.Context) error
	teardown()
	measure(ctx context.Context, seconds float64) (*measurement, error)
	traced(ctx context.Context, tr *tracer, parent int) (cost float64, layer map[string]float64, err error)
}

func newRunner(name string, e *env) (runner, error) {
	switch name {
	case "trace-build":
		return &traceBuild{e: e}, nil
	case "replay-static":
		return &replayRun{e: e, name: name}, nil
	case "replay-stress":
		return &replayRun{e: e, name: name, stress: true}, nil
	case "coord-windows":
		return &coordRun{e: e}, nil
	case "serve-decide":
		return &serveRun{e: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// iterate runs one untraced until seconds have passed (and at least
// MinIterations times), taking CPU and memory from usage, and shapes the
// samples into a round's measurement. digest is the output every
// iteration was checked against, printed so two commits' outputs can be
// compared by eye.
func iterate(ctx context.Context, e *env, seconds float64, usage func() rusage, digest string,
	one func(context.Context, *tracer, int) (sample, error)) (*measurement, error) {
	var samples []sample
	m := &measurement{}
	start := time.Now()
	for len(samples) < e.sc.MinIterations || time.Since(start).Seconds() < seconds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Every iteration starts from a collected heap, so its wall, its
		// CPU and the process's peak memory do not depend on where the
		// previous iteration left the collector. The collection itself
		// is outside both clocks.
		runtime.GC()
		before := usage()
		s, err := one(ctx, nil, 0)
		if err != nil {
			return nil, err
		}
		m.cpuSeconds += usage().cpuSeconds - before.cpuSeconds
		samples = append(samples, s)
	}
	m.peakRSSMB = usage().peakRSSMB
	var rates, waits []float64
	for _, s := range samples {
		m.attempted += s.records
		m.failed += s.failed
		rates = append(rates, float64(s.records)/s.wall.Seconds())
		wait := ms(s.wall)
		if s.nominal > 0 {
			wait *= float64(s.nominal) / float64(s.records)
		}
		waits = append(waits, wait)
	}
	m.cpuItems = m.attempted
	m.rates = rates
	sort.Float64s(waits)
	m.p50s, m.p90s, m.waitSamples = []float64{quantileSorted(waits, 0.50)}, []float64{quantileSorted(waits, 0.90)}, len(waits)
	note := fmt.Sprintf("%d iterations of %d records in %.1fs; wait = one iteration's wall", len(samples), samples[0].records, time.Since(start).Seconds())
	if n := samples[0].nominal; n > 0 {
		note += fmt.Sprintf(", scaled to %d records", n)
	}
	m.notes = append(m.notes, note, "output digest "+digest)
	return m, nil
}

// pool folds a run's rounds into one measurement: counts and CPU add,
// lists concatenate, peak memory is the largest peak. Notes are the last
// round's, which is as good as any.
func pool(rounds []*measurement) *measurement {
	out := &measurement{}
	for _, m := range rounds {
		out.attempted += m.attempted
		out.failed += m.failed
		out.p50s = append(out.p50s, m.p50s...)
		out.p90s = append(out.p90s, m.p90s...)
		out.waitSamples += m.waitSamples
		out.rates = append(out.rates, m.rates...)
		out.cpuSeconds += m.cpuSeconds
		out.cpuItems += m.cpuItems
		if m.peakRSSMB > out.peakRSSMB {
			out.peakRSSMB = m.peakRSSMB
		}
		out.notes = m.notes
	}
	return out
}

// tracedOnce runs one iteration under the tracer and returns its wall as
// the cost; an iteration that fails its output check fails the traced run.
func tracedOnce(ctx context.Context, tr *tracer, parent int,
	one func(context.Context, *tracer, int) (sample, error)) (float64, map[string]float64, error) {
	s, err := one(ctx, tr, parent)
	if err == nil && s.failed != 0 {
		err = fmt.Errorf("traced iteration failed its output check")
	}
	return s.wall.Seconds(), nil, err
}

// sharedTrace is the bin trace file the replay workloads and
// coord-windows read, plus what a census pass over it yields.
type sharedTrace struct {
	path     string
	records  int
	files    []*workload.FileMeta
	popBytes int64
}

// buildSharedTrace generates the head of the trace for the run's seed
// with P generation workers, writes it as a bin file under dir, and takes the
// census a user holding only the file would take: populations in
// first-appearance order, which is what every replay entry point and
// every coordinator worker derives.
func buildSharedTrace(e *env) (*sharedTrace, error) {
	st, err := workload.GenerateStream(workload.DefaultConfig(e.sc.Files, e.seed), workload.DefaultStreamChunk)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.dir, "trace.bin")
	gen := head(st.RequestsWorkers(e.P), e.sc.Records)
	if err := writeBin(path, gen); err != nil {
		return nil, err
	}
	t := &sharedTrace{path: path}
	census := workload.NewCensus()
	src, closer, err := trace.OpenWorkloadBinWindow(path, 0, -1)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	counted := census.Wrap(src)
	for {
		if _, _, ok := counted.Next(); !ok {
			break
		}
		t.records++
	}
	if err := counted.Err(); err != nil {
		return nil, fmt.Errorf("census: %w", err)
	}
	if t.records != gen.TotalRequests() {
		return nil, fmt.Errorf("trace file holds %d records, generated %d", t.records, gen.TotalRequests())
	}
	t.files = census.Files()
	for _, f := range t.files {
		t.popBytes += f.Size
	}
	return t, nil
}

// headSource yields the first n records of a source: the same amount of
// work whatever the seed made of the trace's length. Reaching n releases
// the source (a parallel generator's workers stop only when told to).
type headSource struct {
	src     workload.RequestSource
	n, left int
}

func head(src workload.RequestSource, n int) *headSource {
	return &headSource{src: src, n: n, left: n}
}

func (h *headSource) Next() (int, workload.Request, bool) {
	if h.left == 0 {
		if c, ok := h.src.(io.Closer); ok {
			c.Close()
		}
		return 0, workload.Request{}, false
	}
	h.left--
	i, req, ok := h.src.Next()
	if !ok {
		h.left = 0
	}
	return i, req, ok
}

func (h *headSource) Err() error { return h.src.Err() }

// TotalRequests implements workload.Sizer: n, or all the source has if
// that is less.
func (h *headSource) TotalRequests() int {
	if sz, ok := h.src.(workload.Sizer); ok && sz.TotalRequests() < h.n {
		return sz.TotalRequests()
	}
	return h.n
}

// writeBin streams src into a bin trace file at path.
func writeBin(path string, src workload.RequestSource) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := trace.WriteWorkloadBinStream(bw, src); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sha256Hex(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))
}
