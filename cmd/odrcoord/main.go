// Command odrcoord is the multi-process replay coordinator: it splits a
// bin trace into contiguous record windows, replays each window in a
// supervised worker process (re-execing itself with -worker), checkpoints
// per-window completion into a JSON manifest, and merges the partial
// results into one report whose digest is byte-identical to a
// single-process full-stream replay.
//
// Usage:
//
//	odrcoord -trace FILE -checkpoint DIR [-workers N] [-windows N]
//	         [-seed S] [-shards N] [-faults SPEC]
//	         [-cache-policy NAME] [-pool-bytes N] [-metrics FORMAT]
//	         [-pprof ADDR] [-spec FILE] [-verify]
//	         [-heartbeat DUR] [-max-attempts N]
//	         [-halt-after N] [-crash-window N]
//
// A run that is killed (or halted by -halt-after) leaves the manifest and
// completed partials in the checkpoint directory; rerunning the same
// command resumes, recomputing only unfinished windows. A checkpoint for
// a different trace (by content hash) or replay configuration is refused
// with the mismatching field named. -verify additionally replays the
// whole trace single-process and compares the digests, printing the
// "DISTRIB verdict: PASS|FAIL" line CI greps. Every window starts from
// the census the trace's own file table declares; a trace whose table is
// damaged fails the run, naming the table, before any worker starts. The
// run summary gives each window's worker time and the coordinator's own
// stages — trace hash, state pass, merge plus digest — in ms; the merged
// digest is hashed as it streams and never built as one string. With
// -pprof a net/http/pprof server runs in the coordinator process for the
// lifetime of the run.
//
// -spec FILE loads a scenario file (internal/scenario JSON) and maps its
// distributed subset — seed, shards, cache policy, pool bytes, faults,
// workers — onto the coordinator. The fault schedule spans the
// scenario's horizon, exactly as `scenario -spec` replays it. The
// scenario must be naive (faults without the failure-aware layer):
// per-user circuit state follows executed outcomes, not observations, so
// no window's start state can carry it. Its files, sample and
// window_hours are ignored: odrcoord replays the trace it is given and
// builds no timeline.
//
// Exit codes: 0 success, 1 failure or FAIL verdict, 3 halted after a
// checkpoint (-halt-after).
//
// Worker mode (normally only invoked by the coordinator itself):
//
//	odrcoord -worker < request.json
//
// reads one distrib.WorkerRequest as JSON on stdin (unknown fields and
// trailing data are errors), replays its window, writes the
// partial-result file, and emits "hb N" heartbeat lines and a final
// "done OFF,LIM" line on stdout for the supervisor.
package main

import (
	"bufio"
	"bytes"
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
		workers    = fs.Int("workers", 0, "concurrent worker processes (0 = 1, or the -spec file's workers)")
		windows    = fs.Int("windows", 0, "window count (0 = 2 per worker)")
		seed       = fs.Uint64("seed", 1, "random seed")
		shards     = fs.Int("shards", 0, "per-worker engine shards (0 = GOMAXPROCS; results are identical for any value)")
		specFile   = fs.String("spec", "", "load the distributed subset of a scenario file (JSON)")
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
			*specFile, *verify, *heartbeat, *attempts, *haltAfter, *crashWin, common)
	}
}

// loadSpecFile maps a scenario file's distributed subset onto a worker
// spec and worker count. The fault string is compiled through
// scenario.Spec.FaultSpec, so its episode schedule spans the scenario's
// horizon, as it does under `scenario -spec`.
func loadSpecFile(path string) (distrib.WorkerSpec, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return distrib.WorkerSpec{}, 0, err
	}
	var s scenario.Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return distrib.WorkerSpec{}, 0, fmt.Errorf("spec %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return distrib.WorkerSpec{}, 0, err
	}
	if s.Faults != "" && !s.Naive {
		return distrib.WorkerSpec{}, 0, fmt.Errorf(
			"spec %s: distributed replay cannot run the failure-aware resilience layer "+
				"(its per-user circuit state follows executed outcomes, not observations, so no window start state carries it); "+
				"set \"naive\": true or run single-process", path)
	}
	if s.PoolDivisor > 0 {
		return distrib.WorkerSpec{}, 0, fmt.Errorf(
			"spec %s: pool_divisor is population-relative; distributed runs need an explicit pool_bytes", path)
	}
	s = s.Normalized()
	fs, err := s.FaultSpec()
	if err != nil {
		return distrib.WorkerSpec{}, 0, err
	}
	ws := distrib.WorkerSpec{
		Seed:        s.Seed,
		Shards:      s.Shards,
		CachePolicy: s.CachePolicy,
		PoolBytes:   s.PoolBytes,
	}
	if fs.Enabled() {
		ws.Faults = fs.String()
	}
	return ws, s.Workers, nil
}

func runCoordinator(tracePath, checkpoint string, workers, windows int, seed uint64, shards int,
	specFile string, verify bool, heartbeat time.Duration,
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
	}
	if specFile != "" {
		ws, specWorkers, err := loadSpecFile(specFile)
		if err != nil {
			return err
		}
		spec = ws
		if workers == 0 {
			workers = specWorkers
		}
	}
	spec.Metrics = common.Metrics != ""
	bin, err := os.Executable()
	if err != nil {
		return err
	}
	co, err := distrib.New(distrib.Config{
		TracePath:        tracePath,
		Workers:          workers,
		Windows:          windows,
		CheckpointDir:    checkpoint,
		Spec:             spec,
		Runner:           execRunner{bin: bin},
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
	if errors.Is(err, distrib.ErrHalted) {
		fmt.Printf("halted: checkpoint saved in %s; rerun the same command to resume\n", checkpoint)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()

	tot := merged.Engine.Totals()
	fmt.Printf("\ndistributed replay: %d tasks over %d window(s), %d worker(s), %.3fs wall\n",
		tot.Tasks, len(merged.Windows), workers, elapsed)
	fmt.Printf("failure ratio:      %5.1f%%\n", merged.FailureRatio()*100)
	fmt.Printf("cloud bytes:        %.3g\n", merged.CloudBytes())
	var busy float64
	for i, w := range merged.Windows {
		rate := float64(w.Limit) / merged.Seconds[i]
		busy += merged.Seconds[i]
		fmt.Printf("  window %2d %-22s %9.1fms  %9.0f tasks/s\n", i, w, merged.Seconds[i]*1000, rate)
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
	fmt.Printf("coordinator:        trace hash %.1fms, state pass %.1fms, merge+digest %.1fms\n",
		millis(st.Hash), millis(st.StatePass), millis(st.Merge+time.Since(digestStart)))
	fmt.Printf("merged digest:      sha256:%x\n", sum)
	if err := scenario.DumpRegistry(os.Stderr, merged.Metrics, common.Metrics); err != nil {
		return err
	}

	if verify {
		fmt.Printf("\nverifying against a single-process replay of %s...\n", tracePath)
		ref, err := distrib.SingleProcess(tracePath, spec, nil)
		if err != nil {
			return err
		}
		refSum, err := digestSum(ref.WriteDigest)
		if err != nil {
			return err
		}
		if refSum == sum {
			fmt.Println("DISTRIB verdict: PASS (merged digest byte-identical to single-process)")
		} else {
			fmt.Println("DISTRIB verdict: FAIL (merged digest differs from single-process)")
			return fmt.Errorf("digest mismatch: merged sha256:%x, single-process sha256:%x", sum, refSum)
		}
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

// decodeRequest reads the one WorkerRequest a worker runs. Decoding is
// strict — an unknown field or anything after the object is an error — so
// a coordinator and a worker built from different sources fail loudly
// instead of replaying under a spec neither asked for.
func decodeRequest(r io.Reader) (distrib.WorkerRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req distrib.WorkerRequest
	if err := dec.Decode(&req); err != nil {
		return distrib.WorkerRequest{}, fmt.Errorf("request on stdin: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return distrib.WorkerRequest{}, errors.New("request on stdin: trailing data after the JSON object")
	}
	return req, nil
}

// runWorker is -worker mode: decode the request from in, replay its
// window, write the partial, and emit throttled "hb N" heartbeat lines
// and a final "done OFF,LIM" line on stdout for the supervisor.
func runWorker(ctx context.Context, in io.Reader, stdout io.Writer) error {
	req, err := decodeRequest(in)
	if err != nil {
		return err
	}
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
	if err := distrib.RunWorker(ctx, req, beat); err != nil {
		return err
	}
	fmt.Fprintf(out, "done %d,%d\n", req.Window.Offset, req.Window.Limit)
	return nil
}

// execRunner runs each window as a subprocess of this same binary in
// -worker mode, handing it the request as JSON on stdin and forwarding
// its "hb N" stdout lines as heartbeats. A canceled context kills the
// process.
type execRunner struct {
	bin string
}

// command builds the worker process for one request.
func (r execRunner) command(ctx context.Context, req distrib.WorkerRequest) (*exec.Cmd, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, r.bin, "-worker")
	cmd.Stdin = bytes.NewReader(body)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

func (r execRunner) Run(ctx context.Context, req distrib.WorkerRequest, beat func(records int64)) error {
	cmd, err := r.command(ctx, req)
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		var n int64
		if _, err := fmt.Sscanf(sc.Text(), "hb %d", &n); err == nil {
			beat(n)
		}
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("worker process (window %v): %w", req.Window, err)
	}
	return nil
}
