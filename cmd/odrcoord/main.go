// Command odrcoord is the multi-process replay coordinator: it splits a
// bin trace into contiguous record windows, replays them in supervised
// worker processes (re-execing itself with -worker), checkpoints
// per-window completion into a JSON manifest, and merges the partial
// results into one report whose digest is byte-identical to a
// single-process full-stream replay.
//
// Usage:
//
//	odrcoord -trace FILE -checkpoint DIR [-workers N] [-windows N]
//	         [-seed S] [-shards N] [-faults SPEC]
//	         [-cache-policy NAME] [-pool-bytes N] [-metrics FORMAT]
//	         [-pprof ADDR] [-verify]
//	         [-heartbeat DUR] [-max-attempts N]
//	         [-halt-after N] [-crash-window N]
//
// A run that is killed (or halted by -halt-after) leaves the manifest and
// completed partials in the checkpoint directory; rerunning the same
// command resumes, recomputing only unfinished windows: the checkpoint's
// windows, whatever -windows says, under any -shards (the shard count
// changes no result). A checkpoint for a different trace (by content
// hash) or replay configuration is refused with the mismatching field
// named. -verify additionally replays the
// whole trace single-process and compares the digests, printing the
// "DISTRIB verdict: PASS|FAIL" line CI greps. Every window starts from
// the census the trace's own file table declares; a trace whose table is
// damaged fails the run, naming the table, before any window starts. The
// run summary gives each window's worker time and the coordinator's own
// stages — trace hash, state pass, merge plus digest — in ms, beside a
// "worker windows:" line with the median of each worker stage (restore,
// setup, replay, encode+write+fsync) and the largest peak RSS a worker process
// reported; a "worker processes:" line counts the processes spawned, the
// windows they finished and the respawns that replaced a failed one, and
// gives each process's GOMAXPROCS. The merged digest is hashed as it
// streams and never built as one string. With
// -pprof a net/http/pprof server runs in the coordinator process for the
// lifetime of the run.
//
// Every replay setting is a flag. -faults SPEC takes an internal/faults
// spec, which always replays naively here (faults without the
// failure-aware layer: per-user circuit state follows executed outcomes,
// not observations, so no window's start state can carry it); its
// episode schedule spans a week unless the spec sets span=, so a trace
// of a longer horizon names it ("intensity=0.25,span=720h" is the
// schedule a 30-day scenario file with "faults": "0.25" compiles to).
// odrcoord builds no timeline.
//
// Exit codes: 0 success, 1 failure or FAIL verdict, 3 halted after a
// checkpoint (-halt-after).
//
// Worker mode (normally only invoked by the coordinator itself):
//
//	odrcoord -worker < requests.json
//
// reads a stream of distrib.WorkerRequest JSON objects on stdin (an
// unknown field or a malformed object is an error) and serves them in
// order until stdin closes: per request it replays the window, writes
// the partial-result file, and emits "hb N" heartbeat lines, a "stats"
// line (the window's stage times in ns, the process's peak RSS, its
// GOMAXPROCS) and a final "done OFF,LIM" line on stdout for the
// supervisor, which fails the window on a malformed or missing stats
// line as on a wrong done line. The process opens the
// trace once, at its first request, and keeps the checked file table, the
// census and its identities, and the replay world of its current spec
// (distrib.Worker) for the rest, so every later request must name the same
// trace path and SHA-256; one that does not is refused, naming the field.
// A stream of one request is a one-shot worker. The coordinator starts
// min(-workers, windows not done) such processes once it has read the
// trace's file table and its checkpoint, and keeps at most -workers,
// each serving window after window; one that fails,
// crashes, stalls or is canceled is killed and replaced by a fresh one,
// and every process is reaped before odrcoord exits. Each
// process runs at an even share of the coordinator's cores: GOMAXPROCS
// set to the coordinator's GOMAXPROCS divided by -workers, at least 1.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"odr/internal/distrib"
	"odr/internal/scenario"
)

func main() {
	body := command(flag.CommandLine)
	flag.Parse()
	err := body()
	switch {
	case errors.Is(err, distrib.ErrHalted):
		os.Exit(3)
	case err != nil:
		fmt.Fprintln(os.Stderr, "odrcoord:", err)
		os.Exit(1)
	}
}

// command registers odrcoord's flags on fs and returns the command body,
// to be called once fs has parsed the arguments.
func command(fs *flag.FlagSet) func() error {
	var (
		worker     = fs.Bool("worker", false, "run as a window worker reading its request as JSON on stdin (internal; spawned by the coordinator)")
		tracePath  = fs.String("trace", "", "bin trace file to replay")
		checkpoint = fs.String("checkpoint", "", "checkpoint directory (manifest + partial results)")
		workers    = fs.Int("workers", 0, "concurrent worker processes (0 = 1)")
		windows    = fs.Int("windows", 0, "window count (0 = 2 per worker)")
		seed       = fs.Uint64("seed", 1, "random seed")
		shards     = fs.Int("shards", 0, "per-worker engine shards (0 = GOMAXPROCS; results are identical for any value)")
		verify     = fs.Bool("verify", false, "also replay single-process and compare digests (prints the DISTRIB verdict)")
		heartbeat  = fs.Duration("heartbeat", distrib.DefaultHeartbeatTimeout, "kill a worker whose heartbeats stop for this long")
		attempts   = fs.Int("max-attempts", distrib.DefaultMaxAttempts, "worker attempts per window before the run fails")
		haltAfter  = fs.Int("halt-after", 0, "stop with exit code 3 after N windows complete this run (kill-mid-run test hook)")
		crashWin   = fs.Int("crash-window", 0, "force window N (1-based) to crash mid-replay on its first attempt (test hook)")
	)
	common := scenario.RegisterCommon(fs)
	return func() error {
		if *worker {
			if fs.NFlag() != 1 {
				return errors.New("worker: -worker reads its whole request on stdin and takes no other flags")
			}
			if err := runWorker(context.Background(), os.Stdin, os.Stdout); err != nil {
				return fmt.Errorf("worker: %w", err)
			}
			return nil
		}
		return runCoordinator(*tracePath, *checkpoint, *workers, *windows, *seed, *shards,
			*verify, *heartbeat, *attempts, *haltAfter, *crashWin, common)
	}
}

func runCoordinator(tracePath, checkpoint string, workers, windows int, seed uint64, shards int,
	verify bool, heartbeat time.Duration,
	attempts, haltAfter, crashWin int, common *scenario.Common) error {
	if err := common.Validate(); err != nil {
		return err
	}
	if common.Pprof != "" {
		go scenario.ServePprof(common.Pprof, log.Printf)
	}
	spec := distrib.WorkerSpec{
		Seed:        seed,
		Shards:      shards,
		CachePolicy: common.CachePolicy,
		PoolBytes:   common.PoolBytes,
		Faults:      common.Faults,
		Metrics:     common.Metrics != "",
	}
	bin, err := os.Executable()
	if err != nil {
		return err
	}
	runner := &execRunner{bin: bin, procs: workerProcs(runtime.GOMAXPROCS(0), workers)}
	co, err := distrib.New(distrib.Config{
		TracePath:        tracePath,
		Workers:          workers,
		Windows:          windows,
		CheckpointDir:    checkpoint,
		Spec:             spec,
		Runner:           runner,
		HeartbeatTimeout: heartbeat,
		MaxAttempts:      attempts,
		HaltAfter:        haltAfter,
		CrashWindow:      crashWin,
		Log: func(format string, args ...any) {
			fmt.Printf("coord: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	start := time.Now()
	merged, err := co.Run(context.Background())
	if cerr := runner.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("worker processes: %w", cerr)
	}
	fmt.Printf("worker processes:   %v, GOMAXPROCS %d each\n", runner.Stats(), runner.procs)
	if errors.Is(err, distrib.ErrHalted) {
		fmt.Printf("halted: checkpoint saved in %s; rerun the same command to resume\n", checkpoint)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()

	fmt.Printf("\ndistributed replay: %d tasks over %d window(s), %d worker(s), %.3fs wall\n",
		merged.Totals.Tasks, len(merged.Parts), workers, elapsed)
	fmt.Printf("failure ratio:      %5.1f%%\n", merged.FailureRatio()*100)
	fmt.Printf("cloud bytes:        %.3g\n", merged.CloudBytes())
	var busy float64
	for i, p := range merged.Parts {
		busy += p.Seconds
		fmt.Printf("  window %2d %-22s %9.1fms  %9.0f tasks/s\n", i, p.Window, p.Seconds*1000, float64(p.Window.Limit)/p.Seconds)
	}
	if elapsed > 0 {
		fmt.Printf("worker-seconds:     %.3fs over %.3fs wall (%.2fx parallelism)\n",
			busy, elapsed, busy/elapsed)
	}
	digestStart := time.Now()
	sum, err := digestSum(merged.WriteDigest)
	if err != nil {
		return err
	}
	st := co.Stages
	fmt.Printf("coordinator:        trace hash %.1fms, state pass %.1fms, merge+digest %.1fms, peak RSS %.1f MB\n",
		millis(st.Hash), millis(st.StatePass), millis(st.Merge+time.Since(digestStart)), float64(peakRSS())/(1<<20))
	if ws := runner.Windows(); len(ws) > 0 {
		fmt.Printf("worker windows:     %v\n", summarize(ws))
	}
	fmt.Printf("merged digest:      sha256:%x\n", sum)
	if err := scenario.DumpRegistry(os.Stderr, merged.Metrics, common.Metrics); err != nil {
		return err
	}

	if verify {
		fmt.Printf("\nverifying against a single-process replay of %s...\n", tracePath)
		refStart := time.Now()
		ref, err := distrib.SingleProcess(tracePath, spec, nil)
		if err != nil {
			return err
		}
		fmt.Printf("reference:          base-0 window of %d tasks, %.3fs wall, process peak RSS %.1f MB\n",
			ref.Totals.Tasks, time.Since(refStart).Seconds(), float64(peakRSS())/(1<<20))
		refSum, err := digestSum(ref.WriteDigest)
		if err != nil {
			return err
		}
		if refSum != sum {
			fmt.Println("DISTRIB verdict: FAIL (merged digest differs from single-process)")
			return fmt.Errorf("digest mismatch: merged sha256:%x, single-process sha256:%x", sum, refSum)
		}
		fmt.Println("DISTRIB verdict: PASS (merged digest byte-identical to single-process)")
	}
	return nil
}

// digestSum returns the SHA-256 of the digest write streams, without the
// digest ever existing as one string.
func digestSum(write func(io.Writer) error) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	h := sha256.New()
	if err := write(h); err != nil {
		return sum, err
	}
	h.Sum(sum[:0])
	return sum, nil
}

// millis renders a duration in milliseconds.
func millis(d time.Duration) float64 { return d.Seconds() * 1000 }

// runWorker is -worker mode: a stream of WorkerRequest JSON objects on
// in, served in order until in closes. The first request opens the trace
// (distrib.OpenWorker) and every later one replays against that handle,
// so it must name the same trace path and SHA-256. Per request it writes
// the partial, throttled "hb N" heartbeat lines, a "stats ..." line
// (windowStats: the window's stage times, the process's peak RSS and its
// GOMAXPROCS) and a final "done OFF,LIM" line on stdout for the
// supervisor. Decoding is strict —
// an unknown field or a malformed object is an error — so a coordinator
// and a worker built from different sources fail loudly instead of
// replaying under a spec neither asked for. The first error ends the
// stream; closing in before any request is an error too.
func runWorker(ctx context.Context, in io.Reader, stdout io.Writer) error {
	reqs := newRequestStream(in)
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	var last time.Time
	beat := func(n int64) {
		if now := time.Now(); now.Sub(last) >= 200*time.Millisecond {
			last = now
			fmt.Fprintf(out, "hb %d\n", n)
			out.Flush()
		}
	}
	var w *distrib.Worker
	defer func() {
		if w != nil {
			w.Close()
		}
	}()
	for {
		req, err := reqs.next()
		switch {
		case err == io.EOF && w != nil:
			return nil
		case err == io.EOF:
			return errors.New("no request on stdin")
		case err != nil:
			return err
		}
		if w == nil {
			if w, err = distrib.OpenWorker(req); err != nil {
				return err
			}
		}
		last = time.Time{} // a window's first beat is never throttled
		st, err := w.Run(ctx, req, beat)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, windowStats{WindowStages: st, PeakRSS: peakRSS(), Procs: runtime.GOMAXPROCS(0)})
		fmt.Fprintf(out, "done %d,%d\n", req.Window.Offset, req.Window.Limit)
		if err := out.Flush(); err != nil {
			return err
		}
		// Collect the window's garbage while the process waits for its
		// next request, so the next window's heap grows from what the
		// process holds between windows — the trace handle — as a fresh
		// process's would, not on top of this window's.
		runtime.GC()
	}
}

// encodeRequest is one request as execRunner sends it: a line of JSON.
func encodeRequest(req distrib.WorkerRequest) ([]byte, error) {
	body, err := json.Marshal(req)
	return append(body, '\n'), err
}

// requestStream is the worker's strict decoder of its request stream.
type requestStream struct {
	dec *json.Decoder
	n   int // requests decoded
}

func newRequestStream(in io.Reader) *requestStream {
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	return &requestStream{dec: dec}
}

// next decodes the next request. It returns io.EOF, bare, when the stream
// ends between requests.
func (s *requestStream) next() (distrib.WorkerRequest, error) {
	var req distrib.WorkerRequest
	if err := s.dec.Decode(&req); err == io.EOF {
		return req, err
	} else if err != nil {
		return req, fmt.Errorf("request %d on stdin: %w", s.n+1, err)
	}
	s.n++
	return req, nil
}

// execRunner runs windows in worker processes: this same binary re-exec'ed
// in -worker mode. A process serves one window at a time, reading each
// request as a line of JSON on its stdin, and outlives its window: a Run
// takes an idle process when there is one and spawns one otherwise, so a
// run keeps at most as many processes as it runs windows at once — the
// coordinator's Workers — each opening the trace once; Start spawns them
// ahead, beside the coordinator's trace hash. Run forwards the
// process's "hb N" lines as heartbeats and requires its "done OFF,LIM"
// line to name the window it sent, preceded by a well-formed "stats" line,
// which it keeps (Windows). On any error, crash, cancellation or
// heartbeat stall the process is killed and reaped, never reused, so a
// retry starts in a fresh one. Close ends the idle processes by closing
// their stdin and reaps them; every process is reaped before Close
// returns.
type execRunner struct {
	bin string
	// procs, when positive, is every process's GOMAXPROCS, set in its
	// environment (workerProcs); 0 leaves the environment's own.
	procs int

	mu      sync.Mutex
	idle    []*workerProc
	closed  bool
	stats   procStats
	windows []windowStats
}

// workerProcs is each worker process's GOMAXPROCS: the coordinator's,
// procs, split evenly among its workers (0 counts as 1), and at least 1.
// The coordinator's own goroutines mostly wait on its workers, and a
// worker's engine shards default to its GOMAXPROCS, with replay output
// identical for any shard count; so the processes together run about one
// thread per core where each at the coordinator's width would run
// -workers times that — and each process's garbage collector would take
// idle Ps from the others.
func workerProcs(procs, workers int) int {
	return max(1, procs/max(workers, 1))
}

// procStats counts what a runner's processes did.
type procStats struct {
	// Spawned counts processes started; Respawned, those of them started
	// to replace a discarded one. Reaped counts processes waited for.
	Spawned, Respawned, Reaped int
	// Windows counts the windows processes finished (a "done" line).
	Windows int
	// discarded counts processes killed, not yet replaced.
	discarded int
}

// String is odrcoord's summary of its worker processes.
func (s procStats) String() string {
	return fmt.Sprintf("%d spawned, %d windows, %d respawned", s.Spawned, s.Windows, s.Respawned)
}

// workerProc is one live worker process and the ends of its pipes.
// served reports a request sent to it.
type workerProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	out    *bufio.Scanner
	served bool
}

// Stats returns the runner's counts so far.
func (r *execRunner) Stats() procStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Windows returns the stats of every window a process finished, in the
// order they finished.
func (r *execRunner) Windows() []windowStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.windows)
}

// Start implements distrib.Starter: it starts n processes, idle until a
// window comes, so their exec and runtime start overlap the coordinator's
// own head of the run. A process that fails to start is not retried here;
// the window that needs it starts one and reports the error.
func (r *execRunner) Start(n int) {
	for range n {
		p, err := r.spawn()
		if err != nil {
			return
		}
		r.mu.Lock()
		closed := r.closed
		if !closed {
			r.idle = append(r.idle, p)
		}
		r.mu.Unlock()
		if closed {
			r.retire(p)
			return
		}
	}
}

// take returns an idle process, or starts one.
func (r *execRunner) take() (*workerProc, error) {
	r.mu.Lock()
	closed, n := r.closed, len(r.idle)
	var p *workerProc
	if !closed && n > 0 {
		p, r.idle = r.idle[n-1], r.idle[:n-1]
	}
	r.mu.Unlock()
	switch {
	case closed:
		return nil, errors.New("worker processes: runner closed")
	case p != nil:
		return p, nil
	}
	return r.spawn()
}

// spawn starts a process.
func (r *execRunner) spawn() (*workerProc, error) {
	cmd := exec.Command(r.bin, "-worker")
	if r.procs > 0 {
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(r.procs))
	}
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		stdin.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.stats.Spawned++
	if r.stats.discarded > 0 {
		r.stats.discarded--
		r.stats.Respawned++
	}
	r.mu.Unlock()
	return &workerProc{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)}, nil
}

// discard kills p and reaps it, returning how it ended.
func (r *execRunner) discard(p *workerProc) error {
	p.cmd.Process.Kill()
	p.stdin.Close()
	err := p.cmd.Wait()
	r.mu.Lock()
	r.stats.Reaped++
	r.stats.discarded++
	r.mu.Unlock()
	return err
}

// Run implements distrib.Runner.
func (r *execRunner) Run(ctx context.Context, req distrib.WorkerRequest, beat func(records int64)) error {
	line, err := encodeRequest(req)
	if err != nil {
		return err
	}
	p, err := r.take()
	if err != nil {
		return err
	}
	// A canceled context kills the process, which ends the read below.
	stop := context.AfterFunc(ctx, func() { p.cmd.Process.Kill() })
	ws, err := p.serve(line, req.Window, beat)
	if !stop() {
		err = ctx.Err()
	}
	if err != nil {
		if werr := r.discard(p); errors.Is(err, errExited) && werr != nil {
			err = fmt.Errorf("%w: %w", err, werr) // the exit status
		}
		return fmt.Errorf("worker process (window %v): %w", req.Window, err)
	}
	r.mu.Lock()
	r.stats.Windows++
	r.windows = append(r.windows, ws)
	if !r.closed {
		r.idle = append(r.idle, p)
		p = nil
	}
	r.mu.Unlock()
	if p != nil {
		r.retire(p)
	}
	return nil
}

// errExited reports a worker process whose pipes closed before it
// finished its window: it crashed, failed, or was killed.
var errExited = errors.New("process exited without finishing its window")

// serve sends one request and reads p's stdout up to the "done" line,
// forwarding heartbeats, and returns the window's stats line.
func (p *workerProc) serve(line []byte, win distrib.Window, beat func(records int64)) (windowStats, error) {
	var ws windowStats
	p.served = true
	if _, err := p.stdin.Write(line); err != nil {
		return ws, fmt.Errorf("%w (%v)", errExited, err)
	}
	want := fmt.Sprintf("done %d,%d", win.Offset, win.Limit)
	stats := false
	for p.out.Scan() {
		text := p.out.Text()
		var n int64
		if _, err := fmt.Sscanf(text, "hb %d", &n); err == nil {
			beat(n)
			continue
		}
		if strings.HasPrefix(text, "stats ") {
			var err error
			if ws, err = parseWindowStats(text); err != nil {
				return ws, err
			}
			stats = true
			continue
		}
		if strings.HasPrefix(text, "done ") {
			if text != want {
				return ws, fmt.Errorf("process answered %q to the request for %q", text, want)
			}
			if !stats {
				return ws, fmt.Errorf("process answered %q with no stats line before it", text)
			}
			return ws, nil
		}
	}
	if err := p.out.Err(); err != nil {
		return ws, fmt.Errorf("%w (%v)", errExited, err)
	}
	return ws, errExited
}

// windowStats is what a worker process reports about one window on its
// "stats" line, just before "done": where the window's time went, the
// process's peak RSS so far and the GOMAXPROCS it runs at.
type windowStats struct {
	distrib.WindowStages
	PeakRSS int64 // bytes
	Procs   int
}

// windowStatsFormat is the stats line: stage times in nanoseconds, the
// peak RSS in bytes.
const windowStatsFormat = "stats restore_ns=%d setup_ns=%d replay_ns=%d write_ns=%d peak_rss_bytes=%d gomaxprocs=%d"

// String is the worker's stats line.
func (ws windowStats) String() string {
	return fmt.Sprintf(windowStatsFormat, int64(ws.Restore), int64(ws.Setup), int64(ws.Replay), int64(ws.Write), ws.PeakRSS, ws.Procs)
}

// parseWindowStats parses a stats line, which must be exactly what String
// prints.
func parseWindowStats(text string) (windowStats, error) {
	var ws windowStats
	var restore, setup, replay, write int64
	_, err := fmt.Sscanf(text, windowStatsFormat, &restore, &setup, &replay, &write, &ws.PeakRSS, &ws.Procs)
	ws.WindowStages = distrib.WindowStages{Restore: time.Duration(restore), Setup: time.Duration(setup),
		Replay: time.Duration(replay), Write: time.Duration(write)}
	if err != nil || ws.String() != text || restore < 0 || setup < 0 || replay < 0 || write < 0 || ws.PeakRSS < 0 || ws.Procs < 1 {
		return windowStats{}, fmt.Errorf("process sent a malformed stats line %q", text)
	}
	return ws, nil
}

// summarize is odrcoord's line about its workers' windows: each stage's
// median over the windows and the largest peak RSS any process reported.
func summarize(ws []windowStats) string {
	median := func(stage func(windowStats) time.Duration) float64 {
		d := make([]time.Duration, len(ws))
		for k, w := range ws {
			d[k] = stage(w)
		}
		slices.Sort(d)
		return millis(d[len(d)/2])
	}
	var rss int64
	for _, w := range ws {
		rss = max(rss, w.PeakRSS)
	}
	return fmt.Sprintf("restore %.1fms, setup %.1fms, replay %.1fms, encode+write+fsync %.1fms (medians of %d), peak RSS %.1f MB",
		median(func(w windowStats) time.Duration { return w.Restore }),
		median(func(w windowStats) time.Duration { return w.Setup }),
		median(func(w windowStats) time.Duration { return w.Replay }),
		median(func(w windowStats) time.Duration { return w.Write }),
		len(ws), float64(rss)/(1<<20))
}

// peakRSS is the process's peak resident set size in bytes (Linux reports
// it in KiB).
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss << 10
}

// retire ends an idle process by closing its stdin and reaps it. A
// process that was never sent a request is killed instead: an empty
// request stream is an error to a worker, and this one is expected.
func (r *execRunner) retire(p *workerProc) error {
	if !p.served {
		p.cmd.Process.Kill()
	}
	p.stdin.Close()
	err := p.cmd.Wait()
	if !p.served {
		err = nil
	}
	r.mu.Lock()
	r.stats.Reaped++
	r.mu.Unlock()
	return err
}

// Close ends every idle process and reaps it. Runs still in flight reap
// their own; a Run after Close fails.
func (r *execRunner) Close() error {
	r.mu.Lock()
	idle := r.idle
	r.idle, r.closed = nil, true
	r.mu.Unlock()
	var errs []error
	for _, p := range idle {
		if err := r.retire(p); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
