package distrib

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"odr/internal/trace"
)

// Runner executes one worker assignment. The coordinator is agnostic to
// where the work happens: InProcess runs the window on a goroutine (tests
// and the benchmark's in-process smoke), cmd/odrcoord's exec runner hands
// windows to worker processes that serve one window after another and
// parses heartbeats off their stdout. beat must be called with the
// worker's running record count, from any goroutine; a runner whose beats
// stop for longer than the heartbeat timeout is canceled and the window
// retried.
type Runner interface {
	Run(ctx context.Context, req WorkerRequest, beat func(records int64)) error
}

// Starter is a Runner whose workers take time to start (cmd/odrcoord's
// worker processes). Coordinator.Run calls Start once, with min(Workers,
// windows not done), once it has read the trace's file table and the
// checkpoint and before it hashes the trace, so the workers start while
// it hashes (a run that fails at open starts none); a worker started
// this way serves windows as any other does.
type Starter interface {
	Start(n int)
}

// InProcess runs windows on goroutines in the coordinator's own process.
type InProcess struct{}

// Run implements Runner.
func (InProcess) Run(ctx context.Context, req WorkerRequest, beat func(records int64)) error {
	return RunWorker(ctx, req, beat)
}

// ErrHalted reports a deliberate stop after a checkpoint (Config.HaltAfter,
// the kill-mid-run test hook): the manifest and completed partials are on
// disk, and a rerun with the same checkpoint directory resumes.
var ErrHalted = errors.New("distrib: halted after checkpoint (resume with the same checkpoint directory)")

// errStalled reports a worker whose heartbeats stopped.
var errStalled = errors.New("distrib: worker heartbeat lost")

// Defaults for Config's zero fields.
const (
	DefaultWindowsPerWorker = 2
	DefaultHeartbeatTimeout = 30 * time.Second
	DefaultMaxAttempts      = 3
)

// ManifestName is the checkpoint manifest's file name inside the
// checkpoint directory.
const ManifestName = "manifest.json"

// Config describes one coordinated replay.
type Config struct {
	// TracePath is the bin trace to replay.
	TracePath string
	// Workers is how many windows replay concurrently (0 = 1).
	Workers int
	// Windows is the window count (0 = Workers * DefaultWindowsPerWorker).
	// More windows than workers means failures waste less finished work
	// and the checkpoint advances more often.
	Windows int
	// CheckpointDir holds the manifest and the per-window partials. A
	// directory with a manifest from an earlier run of the same trace and
	// spec resumes: done windows are revalidated and skipped.
	CheckpointDir string
	// Spec is the replay configuration every window runs under.
	Spec WorkerSpec
	// Runner executes worker assignments (nil = InProcess).
	Runner Runner
	// HeartbeatTimeout kills a worker whose beats stop for this long
	// (0 = DefaultHeartbeatTimeout). The window is then retried.
	HeartbeatTimeout time.Duration
	// MaxAttempts bounds worker restarts per window
	// (0 = DefaultMaxAttempts); the run fails when a window exhausts it.
	MaxAttempts int
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)

	// HaltAfter, when positive, stops the run with ErrHalted once that
	// many windows complete in THIS run — the kill-mid-run hook the
	// resume test and the CI distributed smoke use.
	HaltAfter int
	// CrashWindow, when positive, makes window CrashWindow-1's first
	// attempt fail mid-replay (WorkerRequest.CrashAfter), exercising the
	// supervised-restart path.
	CrashWindow int
}

// Coordinator drives one Config to a merged result.
type Coordinator struct {
	cfg Config
	// Resumed is how many windows an existing checkpoint already covered
	// when Run started (valid after Run returns).
	Resumed int
	// Stages is where the coordinator's own time went (valid after Run
	// returns).
	Stages Stages
}

// Stages times the coordinator's serial steps: what a run spends before
// its first window can start and after its last one is done.
type Stages struct {
	// Hash is the trace's SHA-256.
	Hash time.Duration
	// StatePass is the state pass's own time (statePass): from its start
	// to its emitting the last pending window's state. It starts once the
	// checkpoint's windows are known, beside the hash, and runs beside the
	// state-file writes, so it overlaps both. There is one per run. In
	// static mode it reads no record; under a cache policy it is the
	// observation pass.
	StatePass time.Duration
	// Merge is MergePartials.
	Merge time.Duration
}

// New validates the configuration.
func New(cfg Config) (*Coordinator, error) {
	if cfg.TracePath == "" {
		return nil, errors.New("distrib: coordinator needs a trace path")
	}
	if cfg.CheckpointDir == "" {
		return nil, errors.New("distrib: coordinator needs a checkpoint directory")
	}
	if cfg.Workers < 0 || cfg.Windows < 0 {
		return nil, fmt.Errorf("distrib: negative workers (%d) or windows (%d)", cfg.Workers, cfg.Windows)
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Windows == 0 {
		cfg.Windows = cfg.Workers * DefaultWindowsPerWorker
	}
	if cfg.Runner == nil {
		cfg.Runner = InProcess{}
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = DefaultHeartbeatTimeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	return &Coordinator{cfg: cfg}, nil
}

// runState is the state the window workers share: the run's trace
// identity and census, and under mu the manifest, the done windows'
// partials, and the run's outcome.
type runState struct {
	path string     // manifest path
	sha  string     // the trace's SHA-256
	bin  *trace.Bin // the trace, its file table checked; nil after the state pass
	pass *passRun   // the state pass

	mu        sync.Mutex
	manifest  *Manifest
	parts     []*Partial // per window, once read back valid
	completed int        // windows completed this run
	err       error      // first hard failure
	halted    bool
}

// Run partitions, supervises, checkpoints, and merges. On ErrHalted or a
// crash, rerunning with the same checkpoint directory resumes from the
// manifest.
func (c *Coordinator) Run(ctx context.Context) (*Merged, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The trace's census comes from its file table: a trace whose table
	// is damaged fails here, before any window starts.
	bin, err := trace.OpenBin(c.cfg.TracePath)
	if err != nil {
		return nil, err
	}
	st := &runState{path: filepath.Join(c.cfg.CheckpointDir, ManifestName), bin: bin}
	defer st.releaseTrace()
	// The checkpoint is the plan: the manifest an earlier run left, or
	// fresh windows whose trace SHA-256 is filled in once the hash lands.
	records := bin.Census().Records
	st.manifest, err = LoadManifest(st.path)
	fresh := errors.Is(err, os.ErrNotExist)
	if fresh {
		st.manifest, err = NewManifest(c.cfg.TracePath, "", records, c.cfg.Spec, c.cfg.Windows), nil
	}
	if err != nil {
		return nil, err
	}
	if s, ok := c.cfg.Runner.(Starter); ok {
		s.Start(min(c.cfg.Workers, len(st.manifest.Windows)-st.manifest.Done()))
	}
	// The pass needs only the file table, which OpenBin read: it starts
	// over the plan's bases now and runs beside the hash. The states it
	// emits wait for the hash and the manifest's checks (feedStates).
	if len(st.manifest.Windows) > 0 {
		bases := make([]int, len(st.manifest.Windows))
		for i, w := range st.manifest.Windows {
			bases[i] = int(w.Offset)
		}
		st.pass = startPass(ctx, bin, c.cfg.Spec, bases)
	}
	defer st.stopPass()
	start := time.Now()
	st.sha, err = trace.SHA256File(c.cfg.TracePath)
	c.Stages.Hash = time.Since(start)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.cfg.CheckpointDir, 0o755); err != nil {
		return nil, err
	}
	if fresh {
		st.manifest.TraceSHA256 = st.sha
		st.parts = make([]*Partial, len(st.manifest.Windows))
	} else if st.parts, err = c.resume(st.manifest, records, st.sha); err != nil {
		return nil, err
	}
	c.Resumed = st.manifest.Done()
	if c.Resumed > 0 {
		c.cfg.Log("resumed: %d/%d windows already complete", c.Resumed, len(st.manifest.Windows))
	}
	if err := SaveManifest(st.path, st.manifest); err != nil {
		return nil, err
	}

	pending := make([]int, 0, len(st.manifest.Windows))
	for i, w := range st.manifest.Windows {
		if w.State != StateDone {
			pending = append(pending, i)
		}
	}
	if len(pending) == 0 {
		st.stopPass()
	} else if err := c.runPending(ctx, st, pending); err != nil {
		return nil, err
	}
	for i, p := range st.parts {
		if p == nil {
			return nil, fmt.Errorf("distrib: window %d never completed", i)
		}
	}
	start = time.Now()
	merged, err := MergePartials(st.parts)
	c.Stages.Merge = time.Since(start)
	return merged, err
}

// releaseTrace closes the trace and drops it, file table and all: the
// state pass is its last reader, and the workers open their own. The
// pass must have ended.
func (st *runState) releaseTrace() {
	if st.bin != nil {
		st.bin.Close()
		st.bin = nil
	}
}

// stopPass stops the state pass, if one runs, and waits for it to end.
func (st *runState) stopPass() {
	if st.pass != nil {
		st.pass.stop()
		st.pass = nil
	}
}

// passRun is a state pass (statePass) running on a goroutine of its own
// over every window of the checkpoint. It emits window k's state into
// states, in order, and closes states when it ends; err is then its
// error. states has room for every window, so the pass never waits on
// its reader: a state is held there until the reader takes it.
type passRun struct {
	states chan emitted
	err    error
	start  time.Time
	cancel context.CancelFunc
}

// emitted is one state as the pass emitted it, and when.
type emitted struct {
	state []byte
	at    time.Time
}

// startPass starts the state pass over bin at the manifest windows' bases
// (ascending, at least one), canceled with ctx.
func startPass(ctx context.Context, bin *trace.Bin, spec WorkerSpec, bases []int) *passRun {
	ctx, cancel := context.WithCancel(ctx)
	p := &passRun{states: make(chan emitted, len(bases)), start: time.Now(), cancel: cancel}
	go func() {
		defer close(p.states)
		p.err = statePass(bin, spec, bases, &meter{ctx: ctx}, func(_ int, state []byte) error {
			p.states <- emitted{state, time.Now()}
			return nil
		})
	}()
	return p
}

// stop cancels the pass and waits for it to end, dropping the states it
// still holds.
func (p *passRun) stop() {
	p.cancel()
	for range p.states {
	}
}

// resume checks a checkpoint an earlier run left against this run's
// trace and spec, and returns the partials of its done windows (nil for
// the rest). A checkpoint for a different trace or spec is rejected
// naming the mismatching field; done windows whose partials no longer
// read back as this run's (readPartial) are demoted to pending.
func (c *Coordinator) resume(m *Manifest, records int64, sha string) ([]*Partial, error) {
	if m.TraceSHA256 != sha {
		return nil, fmt.Errorf("manifest: trace_sha256: checkpoint is for trace %s…, %s is %s… (delete %s to start over)",
			m.TraceSHA256[:12], c.cfg.TracePath, sha[:12], c.cfg.CheckpointDir)
	}
	if m.Records != records {
		return nil, fmt.Errorf("manifest: records: checkpoint has %d, trace has %d", m.Records, records)
	}
	if got, want := m.Spec.Fingerprint(), c.cfg.Spec.Fingerprint(); got != want {
		return nil, fmt.Errorf("manifest: spec: checkpoint ran under %s, this run wants %s", got, want)
	}
	parts := make([]*Partial, len(m.Windows))
	for i := range m.Windows {
		w := &m.Windows[i]
		if w.State != StateDone {
			continue
		}
		p, err := c.readPartial(w.Partial, w.Window())
		if err != nil {
			c.cfg.Log("window %d: checkpointed partial invalid (%v), recomputing", i, err)
			w.State = StatePending
			w.Partial = ""
			continue
		}
		parts[i] = p
	}
	return parts, nil
}

// readPartial reads the partial named name in the checkpoint directory
// and refuses one this run did not ask for: another window's, or one
// replayed under another spec.
func (c *Coordinator) readPartial(name string, win Window) (*Partial, error) {
	p, err := ReadPartial(filepath.Join(c.cfg.CheckpointDir, name))
	if err != nil {
		return nil, err
	}
	if p.Window != win {
		return nil, fmt.Errorf("distrib: %s covers %v, want %v", name, p.Window, win)
	}
	if fp := c.cfg.Spec.Fingerprint(); p.Spec != fp {
		return nil, fmt.Errorf("distrib: %s replayed under spec %s, this run's is %s", name, p.Spec, fp)
	}
	return p, nil
}

// runPending fans the pending window indices over the worker pool. The
// state pass feeds the queue, so a window dispatches as soon as its state
// file is durable and the pass runs while the first wave replays.
func (c *Coordinator) runPending(ctx context.Context, st *runState, pending []int) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Room for every pending window: the state pass never waits on a
	// worker.
	queue := make(chan int, len(pending))
	workers := c.cfg.Workers
	if workers > len(pending) {
		workers = len(pending)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range queue {
				if runCtx.Err() != nil {
					continue // drain; the run is over
				}
				err := c.runWindow(runCtx, st, idx)
				st.mu.Lock()
				switch {
				case err == nil:
					st.completed++
					if serr := SaveManifest(st.path, st.manifest); serr != nil && st.err == nil {
						st.err = serr
						cancel()
					}
					if c.cfg.HaltAfter > 0 && st.completed >= c.cfg.HaltAfter && !st.halted {
						st.halted = true
						c.cfg.Log("halting after %d completed window(s) (checkpoint saved)", st.completed)
						cancel()
					}
				case runCtx.Err() != nil && (st.err != nil || st.halted):
					// Canceled because the run already ended; not a new failure.
				default:
					if st.err == nil {
						st.err = err
					}
					cancel()
				}
				st.mu.Unlock()
			}
		}()
	}
	if err := c.feedStates(runCtx, st, len(pending), queue); err != nil && runCtx.Err() == nil {
		st.mu.Lock()
		if st.err == nil {
			st.err = err
		}
		st.mu.Unlock()
		cancel()
	}
	close(queue)
	wg.Wait()

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return st.err
	}
	if st.halted {
		return ErrHalted
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// feedStates hands the pending windows their states as the coordinator's
// state pass (st.pass) emits them: a pending window's state file is
// written and the window queued once the file is durable; the state of a
// window the manifest says is done is dropped. Once all pending windows
// are queued the pass is stopped, whatever bases it has left, and the
// trace released. Canceling ctx stops the pass. Nothing an earlier run
// wrote is read back: a resume recomputes every file it hands out.
func (c *Coordinator) feedStates(ctx context.Context, st *runState, pending int, queue chan<- int) error {
	pass, left := st.pass, pending
	defer context.AfterFunc(ctx, pass.cancel)()
	fp := c.cfg.Spec.Fingerprint()
	idx := -1 // the pass emits window k's state k-th
	var last time.Time
	for e := range pass.states {
		idx++
		st.mu.Lock()
		w := st.manifest.Windows[idx]
		st.mu.Unlock()
		if w.State == StateDone {
			continue
		}
		hdr := stateHeader{TraceSHA256: st.sha, Spec: fp, Base: w.Offset}
		if err := writeState(filepath.Join(c.cfg.CheckpointDir, stateName(idx)), hdr, e.state); err != nil {
			return err
		}
		queue <- idx
		last = e.at
		if left--; left == 0 {
			break
		}
	}
	if left > 0 {
		if pass.err != nil {
			return pass.err
		}
		return fmt.Errorf("distrib: the state pass ended with %d window(s) still without a state", left)
	}
	st.stopPass()
	c.Stages.StatePass = last.Sub(pass.start)
	c.cfg.Log("state pass: %d window state(s) from a census of %d files in %.1fms",
		pending, len(st.bin.Census().Files), c.Stages.StatePass.Seconds()*1000)
	st.releaseTrace()
	return nil
}

// runWindow supervises one window through bounded restarts, marking it
// done in the manifest on success. The caller persists the manifest.
func (c *Coordinator) runWindow(ctx context.Context, st *runState, idx int) error {
	st.mu.Lock()
	win := st.manifest.Windows[idx].Window()
	st.mu.Unlock()
	name := fmt.Sprintf("window-%05d.odrp", idx)
	path := filepath.Join(c.cfg.CheckpointDir, name)

	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.mu.Lock()
		st.manifest.Windows[idx].Attempts++
		st.mu.Unlock()
		req := WorkerRequest{
			TracePath:   c.cfg.TracePath,
			Window:      win,
			Spec:        c.cfg.Spec,
			PartialPath: path,
			TraceSHA256: st.sha,
			StatePath:   filepath.Join(c.cfg.CheckpointDir, stateName(idx)),
		}
		if attempt == 1 && c.cfg.CrashWindow == idx+1 {
			// Crash half way through the window: the worker reads no
			// record before it.
			req.CrashAfter = win.Limit/2 + 1
			c.cfg.Log("window %d: injecting crash after %d records (test hook)", idx, req.CrashAfter)
		}
		start := time.Now()
		err := c.attempt(ctx, req)
		if err == nil {
			var p *Partial
			if p, err = c.readPartial(name, win); err == nil {
				st.mu.Lock()
				w := &st.manifest.Windows[idx]
				w.State = StateDone
				w.Partial = name
				w.Seconds = p.Seconds
				st.parts[idx] = p
				st.mu.Unlock()
				c.cfg.Log("window %d %v done in %.1fms (attempt %d)", idx, win, p.Seconds*1000, attempt)
				return nil
			}
			err = fmt.Errorf("distrib: window %d: %w", idx, err)
		}
		lastErr = err
		if ctx.Err() != nil {
			return ctx.Err()
		}
		c.cfg.Log("window %d %v attempt %d/%d failed after %.1fs: %v",
			idx, win, attempt, c.cfg.MaxAttempts, time.Since(start).Seconds(), err)
	}
	return fmt.Errorf("distrib: window %d %v failed %d attempts: %w",
		idx, win, c.cfg.MaxAttempts, lastErr)
}

// attempt runs one worker under the heartbeat watchdog, one timer that
// every beat resets: a worker whose beats stop for HeartbeatTimeout is
// canceled and reported stalled.
func (c *Coordinator) attempt(ctx context.Context, req WorkerRequest) error {
	wctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	watchdog := time.AfterFunc(c.cfg.HeartbeatTimeout, func() { cancel(errStalled) })
	defer watchdog.Stop()
	err := c.cfg.Runner.Run(wctx, req, func(int64) { watchdog.Reset(c.cfg.HeartbeatTimeout) })
	if context.Cause(wctx) == errStalled {
		return fmt.Errorf("%w (no beat for %v; last error: %v)", errStalled, c.cfg.HeartbeatTimeout, err)
	}
	return err
}
