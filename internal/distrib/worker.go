package distrib

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
	// StatePath hands the worker the cloud's observation state at
	// Window.Offset, in the state file the coordinator's pass wrote,
	// pinned to TraceSHA256, the spec and the base (a file that does not
	// match is refused, naming the field). With no StatePath the worker
	// derives the same state itself, through the same state pass. Either
	// way its file population is the trace's own census (trace.BinCensus).
	TraceSHA256 string `json:"trace_sha256,omitempty"`
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

// wrapOrdinals returns the ordinal source src metered by m.
func (m *meter) wrapOrdinals(src replay.OrdinalSource) replay.OrdinalSource {
	return &meteredOrdinals{m: m, src: src}
}

type meteredOrdinals struct {
	m   *meter
	src replay.OrdinalSource
	err error
}

func (s *meteredOrdinals) Next() (int, int, time.Duration, bool) {
	if s.err != nil {
		return 0, 0, 0, false
	}
	i, file, when, ok := s.src.Next()
	if !ok {
		return 0, 0, 0, false
	}
	if err := s.m.tick(); err != nil {
		s.err = err
		return 0, 0, 0, false
	}
	return i, file, when, ok
}

func (s *meteredOrdinals) Err() error {
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

// Worker replays windows of one bin trace: it opens the trace once —
// header, trailer and file table checked, the census built — and serves
// any number of window requests against that one handle, one at a time.
// cmd/odrcoord's worker process holds one for as long as its stdin stays
// open; RunWorker is the one-shot form.
//
// What a window reads but never changes is built once per worker, not
// once per window: the trace's identities (trace.Bin.Window hands out the
// census's files and one table of users) and, per spec, the replay world
// over the census (replay.World: the population's numbering and bands,
// the static warm pool, and each file's pre-download outcome and warm
// bit, built lazily by the first window that observes the file). Each is
// a pure function of the trace's census and the spec, so a window replays
// over them exactly as over fresh ones. The world is keyed by the spec's
// fingerprint and rebuilt when a request names another spec.
type Worker struct {
	bin *trace.Bin
	sha string

	// mu serialises Replay: a window's observation builds world slots that
	// its workers then read.
	mu    sync.Mutex
	spec  string // the fingerprint world was built for
	world *replay.World
}

// OpenWorker opens the trace req names for a worker that will serve req
// and any later request naming the same trace path and SHA-256.
func OpenWorker(req WorkerRequest) (*Worker, error) {
	bin, err := trace.OpenBin(req.TracePath)
	if err != nil {
		return nil, err
	}
	return &Worker{bin: bin, sha: req.TraceSHA256}, nil
}

// Close releases the trace.
func (w *Worker) Close() error { return w.bin.Close() }

// RunWorker replays one window in a Worker of its own (Worker.Run).
func RunWorker(ctx context.Context, req WorkerRequest, beat func(records int64)) error {
	w, err := OpenWorker(req)
	if err != nil {
		return err
	}
	defer w.Close()
	_, err = w.Run(ctx, req, beat)
	return err
}

// WindowStages is where a worker's time on one window went.
type WindowStages struct {
	// Restore is the window's start state in hand: its state file read,
	// or, for a request that names none, the state pass run — and, for the
	// first request under a spec, the worker's world built.
	Restore time.Duration
	// Setup is the window's fleet built over the world, its cloud
	// restored from the state, before the engine read its first record
	// (replay.WindowResult.Setup).
	Setup time.Duration
	// Replay is the window's records replayed, after Setup.
	Replay time.Duration
	// Write is the partial encoded, written and fsynced (WritePartial).
	Write time.Duration
}

// Run replays one window (Replay) and writes its partial result to
// req.PartialPath, reporting where the window's time went.
func (w *Worker) Run(ctx context.Context, req WorkerRequest, beat func(records int64)) (WindowStages, error) {
	if req.PartialPath == "" {
		return WindowStages{}, errors.New("distrib: worker needs a partial output path")
	}
	p, st, err := w.Replay(ctx, req, beat)
	if err == nil {
		written := time.Now()
		err = WritePartial(req.PartialPath, p)
		st.Write = time.Since(written)
	}
	return st, err
}

// Replay replays one window of the worker's trace and returns its
// partial result (req.PartialPath is not read). A request naming another
// trace path or SHA-256 than the worker opened is refused, naming the
// field. The window starts from the census population the trace's file
// table declares — so the backend fleet's sequential warm-pool draws
// match every other window's — and the cloud's observation state at its
// base: read from the request's state file, or, when it names none,
// derived in memory by the coordinator's state pass (statePass). It then
// replays only the window, every index-keyed input offset by its base,
// over the worker's world for the spec (replay.RunODRWindow).
//
// beat, when non-nil, receives the records read so far about every
// progressEvery records: the coordinator's heartbeat. Cancelling ctx
// stops the worker between records. Replay reports where the window's
// time went, Write aside. Calls run one at a time.
func (w *Worker) Replay(ctx context.Context, req WorkerRequest, beat func(records int64)) (*Partial, WindowStages, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var st WindowStages
	switch {
	case req.TracePath != w.bin.Path():
		return nil, st, fmt.Errorf("distrib: worker: trace_path: request names %s, this worker opened %s", req.TracePath, w.bin.Path())
	case req.TraceSHA256 != w.sha:
		return nil, st, fmt.Errorf("distrib: worker: trace_sha256: request names %q, this worker opened %q", req.TraceSHA256, w.sha)
	}
	if err := req.Spec.Validate(); err != nil {
		return nil, st, err
	}
	start := time.Now()
	cen := w.bin.Census()
	win := req.Window
	if win.Offset < 0 || win.Limit <= 0 || win.End() > cen.Records {
		return nil, st, fmt.Errorf("distrib: window %v outside trace of %d records", win, cen.Records)
	}
	// A run can read fewer than progressEvery records, so the meter
	// might never check.
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	m := &meter{ctx: ctx, beat: beat}
	state, err := w.windowState(req, m)
	if err != nil {
		return nil, st, err
	}
	if req.CrashAfter > 0 {
		m.crashAfter = m.processed + req.CrashAfter
	}
	wsrc, err := w.bin.Window(win.Offset, win.Limit)
	if err != nil {
		return nil, st, err
	}

	var reg *obs.Registry
	if req.Spec.Metrics {
		reg = obs.NewRegistry()
	}
	opts, err := req.Spec.ReplayOptions(reg)
	if err != nil {
		return nil, st, err
	}
	if fp := req.Spec.Fingerprint(); w.world == nil || w.spec != fp {
		w.world, w.spec = replay.NewWorld(cen.Files, opts), fp
	}
	replayed := time.Now()
	st.Restore = replayed.Sub(start)
	res, err := replay.RunODRWindow(w.world, state, m.wrap(wsrc), int(win.Offset),
		smartap.Benchmarked(), opts)
	if err != nil {
		return nil, st, err
	}
	if got := int64(len(res.Records)); got != win.Limit {
		return nil, st, fmt.Errorf("distrib: window %v replayed %d tasks, want %d", win, got, win.Limit)
	}

	p := &Partial{
		Window:  win,
		Spec:    req.Spec.Fingerprint(),
		Ledgers: res.Ledgers(),
		Totals:  res.Engine.Totals(),
		Tasks:   res.Records,
		Seconds: time.Since(start).Seconds(),
	}
	if reg != nil {
		p.Metrics = reg.Snapshot()
	}
	st.Setup = res.Setup
	st.Replay = time.Since(replayed) - res.Setup
	return p, st, nil
}

// windowState returns the cloud's observation state at req's window
// base: from the request's state file when it names one, derived by
// statePass, metered by m, when it does not.
func (w *Worker) windowState(req WorkerRequest, m *meter) ([]byte, error) {
	if req.StatePath == "" {
		var state []byte
		err := statePass(w.bin, req.Spec, []int{int(req.Window.Offset)}, m,
			func(_ int, s []byte) error { state = s; return nil })
		return state, err
	}
	return readState(req.StatePath, stateHeader{TraceSHA256: req.TraceSHA256, Spec: req.Spec.Fingerprint(), Base: req.Window.Offset})
}
