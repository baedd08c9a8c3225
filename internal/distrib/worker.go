package distrib

import (
	"context"
	"errors"
	"fmt"
	"time"

	"odr/internal/obs"
	"odr/internal/replay"
	"odr/internal/smartap"
	"odr/internal/trace"
	"odr/internal/workload"
)

// WorkerRequest is one window assignment: which trace, which records,
// under which spec, and where the partial result goes.
type WorkerRequest struct {
	// TracePath is the bin trace every worker reads (workers never
	// receive trace data over a pipe — they seek into the shared file).
	TracePath string `json:"trace_path"`
	// Window is the record range this worker replays.
	Window Window `json:"window"`
	// Spec is the replay configuration; it must match the coordinator's.
	Spec WorkerSpec `json:"spec"`
	// PartialPath is where the worker writes its partial-result file
	// (atomically: temp file, then rename).
	PartialPath string `json:"partial_path"`
	// TraceSHA256, CensusPath and StatePath hand the worker its start:
	// the census population and the cloud's observation state at
	// Window.Offset, in the state files the coordinator's pass wrote, each
	// pinned to this trace hash, spec and base (a file that does not match
	// is refused, naming the field). Set all three or none; with none the
	// worker derives the same start itself, through the same census and
	// state pass.
	TraceSHA256 string `json:"trace_sha256,omitempty"`
	CensusPath  string `json:"census_path,omitempty"`
	StatePath   string `json:"state_path,omitempty"`
	// CrashAfter, when positive, makes the worker fail with
	// ErrCrashRequested after replaying that many records of its window —
	// the test hook behind the forced worker-kill smoke. The coordinator
	// sets it only on a window's first attempt.
	CrashAfter int64 `json:"crash_after,omitempty"`
}

// ErrCrashRequested is the injected failure behind WorkerRequest.CrashAfter.
var ErrCrashRequested = errors.New("distrib: worker crash requested (test hook)")

// progressEvery is how many records a pass reads between heartbeat and
// cancellation checks. Small enough that heartbeats flow every few
// milliseconds, large enough to stay off the decode hot path.
const progressEvery = 1024

// meter wraps the sources a worker's passes read with one shared record
// counter: heartbeats, cooperative cancellation, and the crash hook all
// key off records read. The worker arms the crash hook only once its
// start state is in hand, so CrashAfter counts window records alone.
type meter struct {
	ctx        context.Context
	beat       func(records int64)
	crashAfter int64
	processed  int64
}

// tick advances the counter by one record and returns a non-nil error
// when the worker should stop (context canceled or crash requested).
func (m *meter) tick() error {
	m.processed++
	if m.crashAfter > 0 && m.processed >= m.crashAfter {
		return ErrCrashRequested
	}
	if m.processed%progressEvery == 0 {
		if m.beat != nil {
			m.beat(m.processed)
		}
		if err := m.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// wrap returns src metered by m.
func (m *meter) wrap(src workload.RequestSource) workload.RequestSource {
	return &meteredSource{m: m, src: src}
}

type meteredSource struct {
	m   *meter
	src workload.RequestSource
	err error
}

func (s *meteredSource) Next() (int, workload.Request, bool) {
	if s.err != nil {
		return 0, workload.Request{}, false
	}
	i, req, ok := s.src.Next()
	if !ok {
		return 0, workload.Request{}, false
	}
	if err := s.m.tick(); err != nil {
		s.err = err
		return 0, workload.Request{}, false
	}
	return i, req, ok
}

func (s *meteredSource) Err() error {
	if s.err != nil {
		return s.err
	}
	return s.src.Err()
}

// TotalRequests implements workload.Sizer by forwarding the wrapped
// source's count (0, "unknown", when it has none), so a metered bin
// window keeps the engine's in-place result path.
func (s *meteredSource) TotalRequests() int {
	if sz, ok := s.src.(workload.Sizer); ok {
		return sz.TotalRequests()
	}
	return 0
}

// census is a bin trace's file population in first-appearance order —
// the order every worker and the single-process reference hand to the
// backend fleet, so its sequential warm-pool draws match — and the record
// index at which each file first appears.
type census struct {
	files []*workload.FileMeta
	// first[o] is the index of the first record naming files[o]. It
	// ascends, so the files named before any record are a prefix of files.
	first []int
}

// takeCensus runs the full census pass over a bin trace. The bin decoder
// interns every file by ID in first-appearance order anyway
// (trace.BinFiles), so the pass keeps no population of its own: it notes
// the record at which the decoder's population grows. m, when non-nil,
// meters the pass's records.
func takeCensus(tracePath string, m *meter) (census, error) {
	src, closer, err := trace.OpenWorkloadBinWindow(tracePath, 0, -1)
	if err != nil {
		return census{}, err
	}
	defer closer.Close()
	counted := src
	if m != nil {
		counted = m.wrap(src)
	}
	var first []int
	for {
		i, _, ok := counted.Next()
		if !ok {
			break
		}
		// A record names one file, so the population grows by at most one.
		if files, _ := trace.BinFiles(src); len(files) > len(first) {
			first = append(first, i)
		}
	}
	if err := counted.Err(); err != nil {
		return census{}, fmt.Errorf("distrib: census pass: %w", err)
	}
	files, _ := trace.BinFiles(src) // a bin source by construction
	return census{files: files, first: first}, nil
}

// RunWorker replays one window of a bin trace and writes the partial
// result to req.PartialPath. It starts from the census population — so
// the backend fleet's sequential warm-pool draws match every other
// worker's and a single-process replay's — and the cloud's observation
// state at the window base: read from the state files the request names,
// or, when it names none, derived in memory by the census and the state
// pass the coordinator runs (statePass). It then replays only the
// window, with every index-keyed input offset by the window base
// (replay.RunODRWindow).
//
// beat, when non-nil, receives the total records read so far about every
// progressEvery records — the coordinator's heartbeat signal.
// Cancelling ctx stops the worker between records.
func RunWorker(ctx context.Context, req WorkerRequest, beat func(records int64)) error {
	if err := req.Spec.Validate(); err != nil {
		return err
	}
	if req.PartialPath == "" {
		return errors.New("distrib: worker needs a partial output path")
	}
	records, err := trace.BinRecords(req.TracePath)
	if err != nil {
		return err
	}
	win := req.Window
	if win.Offset < 0 || win.Limit <= 0 || win.End() > records {
		return fmt.Errorf("distrib: window %v outside trace of %d records", win, records)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// A run can read fewer than progressEvery records, so the meter
	// might never check.
	if err := ctx.Err(); err != nil {
		return err
	}
	m := &meter{ctx: ctx, beat: beat}
	start := time.Now()
	files, state, err := windowStart(req, records, m)
	if err != nil {
		return err
	}
	if req.CrashAfter > 0 {
		m.crashAfter = m.processed + req.CrashAfter
	}
	wsrc, wcloser, err := trace.OpenWorkloadBinWindow(req.TracePath, win.Offset, win.Limit)
	if err != nil {
		return err
	}
	defer wcloser.Close()

	var reg *obs.Registry
	if req.Spec.Metrics {
		reg = obs.NewRegistry()
	}
	opts, err := req.Spec.ReplayOptions(reg)
	if err != nil {
		return err
	}
	res, err := replay.RunODRWindow(state, m.wrap(wsrc), int(win.Offset),
		files, smartap.Benchmarked(), opts)
	if err != nil {
		return err
	}
	if got := int64(len(res.Tasks)); got != win.Limit {
		return fmt.Errorf("distrib: window %v replayed %d tasks, want %d", win, got, win.Limit)
	}

	p := &Partial{
		Window:  win,
		Spec:    req.Spec.Fingerprint(),
		Ledgers: res.Ledgers(),
		Totals:  res.Engine.Totals(),
		Tasks:   replay.DigestRecords(res.Tasks),
		Seconds: time.Since(start).Seconds(),
	}
	if reg != nil {
		p.Metrics = reg.Snapshot()
	}
	return WritePartial(req.PartialPath, p)
}

// windowStart returns the census population and the cloud's observation
// state at req's window base: from the request's state files when it
// names them, derived through takeCensus and statePass, metered by m, when
// it names none.
func windowStart(req WorkerRequest, records int64, m *meter) ([]*workload.FileMeta, []byte, error) {
	if req.TraceSHA256 == "" && req.CensusPath == "" && req.StatePath == "" {
		cen, err := takeCensus(req.TracePath, m)
		if err != nil {
			return nil, nil, err
		}
		var state []byte
		err = statePass(req.TracePath, cen, req.Spec, []int{int(req.Window.Offset)}, m,
			func(_ int, s []byte) error { state = s; return nil })
		return cen.files, state, err
	}
	if req.TraceSHA256 == "" || req.CensusPath == "" || req.StatePath == "" {
		return nil, nil, errors.New("distrib: a worker request names all of trace_sha256, census_path and state_path, or none")
	}
	fp := req.Spec.Fingerprint()
	raw, err := readState(req.CensusPath, stateHeader{Kind: kindCensus, TraceSHA256: req.TraceSHA256, Spec: fp, Base: records})
	if err != nil {
		return nil, nil, err
	}
	files, err := decodeCensus(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("distrib: %s: %w", req.CensusPath, err)
	}
	state, err := readState(req.StatePath, stateHeader{Kind: kindState, TraceSHA256: req.TraceSHA256, Spec: fp, Base: req.Window.Offset})
	if err != nil {
		return nil, nil, err
	}
	return files, state, nil
}
