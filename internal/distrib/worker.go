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

// TotalRequests implements workload.Sizer by forwarding the wrapped
// source's count (0, "unknown", when it has none), so a metered bin
// window keeps the engine's in-place result path.
func (s *meteredSource) TotalRequests() int {
	if sz, ok := s.src.(workload.Sizer); ok {
		return sz.TotalRequests()
	}
	return 0
}

// RunWorker replays one window of a bin trace and writes the partial
// result to req.PartialPath. It starts from the census population the
// trace's file table declares — so the backend fleet's sequential
// warm-pool draws match every other worker's and a single-process
// replay's — and the cloud's observation state at the window base: read
// from the state file the request names, or, when it names none, derived
// in memory by the state pass the coordinator runs (statePass). It then
// replays only the window, with every index-keyed input offset by the
// window base (replay.RunODRWindow).
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
	start := time.Now()
	cen, err := trace.ReadBinCensus(req.TracePath)
	if err != nil {
		return err
	}
	win := req.Window
	if win.Offset < 0 || win.Limit <= 0 || win.End() > cen.Records {
		return fmt.Errorf("distrib: window %v outside trace of %d records", win, cen.Records)
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
	state, err := windowState(req, cen, m)
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
		cen.Files, smartap.Benchmarked(), opts)
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

// windowState returns the cloud's observation state at req's window
// base: from the request's state file when it names one, derived by
// statePass, metered by m, when it does not.
func windowState(req WorkerRequest, cen trace.BinCensus, m *meter) ([]byte, error) {
	if req.StatePath == "" {
		var state []byte
		err := statePass(req.TracePath, cen, req.Spec, []int{int(req.Window.Offset)}, m,
			func(_ int, s []byte) error { state = s; return nil })
		return state, err
	}
	return readState(req.StatePath, stateHeader{TraceSHA256: req.TraceSHA256, Spec: req.Spec.Fingerprint(), Base: req.Window.Offset})
}
