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
//	         [-seed S] [-shards N] [-chunk N] [-faults SPEC]
//	         [-cache-policy NAME] [-pool-bytes N] [-metrics FORMAT]
//	         [-pprof ADDR] [-spec FILE] [-window-hours H] [-verify] [-inprocess]
//	         [-heartbeat DUR] [-max-attempts N]
//	         [-halt-after N] [-crash-window N]
//
// A run that is killed (or halted by -halt-after) leaves the manifest and
// completed partials in the checkpoint directory; rerunning the same
// command resumes, recomputing only unfinished windows. A checkpoint for
// a different trace (by content hash) or replay configuration is refused
// with the mismatching field named. -verify additionally replays the
// whole trace single-process and compares the digests, printing the
// "DISTRIB verdict: PASS|FAIL" line CI greps. With -pprof a
// net/http/pprof server runs in the coordinator process for the lifetime
// of the run (it covers the workers too under -inprocess).
//
// -spec FILE loads a scenario file (internal/scenario JSON) and maps its
// distributed subset — seed, shards, chunk, cache policy, pool bytes,
// faults, workers — onto the coordinator; the scenario must be naive
// (faults without the failure-aware layer), because per-user circuit
// state cannot be reproduced window by window.
//
// Exit codes: 0 success, 1 failure or FAIL verdict, 3 halted after a
// checkpoint (-halt-after).
//
// Worker mode (normally only invoked by the coordinator itself):
//
//	odrcoord -worker -trace FILE -window OFF,LIM -out FILE [spec flags]
//
// replays records [OFF, OFF+LIM) and writes the partial-result file,
// emitting "hb N" heartbeat lines on stdout for the supervisor.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"strconv"
	"time"

	"odr/internal/distrib"
	"odr/internal/replay"
	"odr/internal/scenario"
)

func main() {
	var (
		worker     = flag.Bool("worker", false, "run as a window worker (internal; spawned by the coordinator)")
		tracePath  = flag.String("trace", "", "bin trace file to replay")
		checkpoint = flag.String("checkpoint", "", "checkpoint directory (manifest + partial results)")
		workers    = flag.Int("workers", 0, "concurrent worker processes (0 = 1, or the -spec file's workers)")
		windows    = flag.Int("windows", 0, "window count (0 = 2 per worker)")
		seed       = flag.Uint64("seed", 1, "random seed")
		shards     = flag.Int("shards", 0, "per-worker engine shards (0 = GOMAXPROCS; results are identical for any value)")
		chunk      = flag.Int("chunk", 0, "streaming batch size (0 = default; results are identical for any value)")
		specFile   = flag.String("spec", "", "load the distributed subset of a scenario file (JSON)")
		windowHrs  = flag.Float64("window-hours", 0, "build a windowed observability timeline with this window width")
		verify     = flag.Bool("verify", false, "also replay single-process and compare digests (prints the DISTRIB verdict)")
		inprocess  = flag.Bool("inprocess", false, "run workers as goroutines instead of subprocesses")
		heartbeat  = flag.Duration("heartbeat", distrib.DefaultHeartbeatTimeout, "kill a worker whose heartbeats stop for this long")
		attempts   = flag.Int("max-attempts", distrib.DefaultMaxAttempts, "worker attempts per window before the run fails")
		haltAfter  = flag.Int("halt-after", 0, "stop with exit code 3 after N windows complete this run (kill-mid-run test hook)")
		crashWin   = flag.Int("crash-window", 0, "force window N (1-based) to crash mid-replay on its first attempt (test hook)")

		// Worker-mode flags.
		windowSpec = flag.String("window", "", "worker: replay records OFF,LIM of the trace")
		outPath    = flag.String("out", "", "worker: partial-result output file")
		crashAfter = flag.Int64("crash-after", 0, "worker: fail after processing N records (test hook)")
		wmetrics   = flag.Bool("worker-metrics", false, "worker: record metrics and ship the snapshot in the partial")
	)
	common := scenario.RegisterCommon(flag.CommandLine)
	flag.Parse()

	if *worker {
		if err := runWorker(*tracePath, *windowSpec, *outPath, *seed, *shards, *chunk,
			*crashAfter, *wmetrics, common); err != nil {
			fmt.Fprintln(os.Stderr, "odrcoord worker:", err)
			os.Exit(1)
		}
		return
	}
	err := runCoordinator(*tracePath, *checkpoint, *workers, *windows, *seed, *shards, *chunk,
		*specFile, *windowHrs, *verify, *inprocess, *heartbeat, *attempts, *haltAfter, *crashWin, common)
	switch {
	case errors.Is(err, distrib.ErrHalted):
		fmt.Printf("halted: checkpoint saved in %s; rerun the same command to resume\n", *checkpoint)
		os.Exit(3)
	case err != nil:
		fmt.Fprintln(os.Stderr, "odrcoord:", err)
		os.Exit(1)
	}
}

// workerSpec assembles the WorkerSpec shared by both modes from the
// command line, or from a scenario file when one is named.
func workerSpec(seed uint64, shards, chunk int, common *scenario.Common, metrics bool) distrib.WorkerSpec {
	return distrib.WorkerSpec{
		Seed:        seed,
		Shards:      shards,
		Chunk:       chunk,
		CachePolicy: common.CachePolicy,
		PoolBytes:   common.PoolBytes,
		Faults:      common.Faults,
		Metrics:     metrics,
	}
}

// loadSpecFile maps a scenario file's distributed subset onto a worker
// spec, worker count, and timeline config.
func loadSpecFile(path string) (distrib.WorkerSpec, int, *replay.TimelineConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return distrib.WorkerSpec{}, 0, nil, err
	}
	var s scenario.Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return distrib.WorkerSpec{}, 0, nil, fmt.Errorf("spec %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return distrib.WorkerSpec{}, 0, nil, err
	}
	if s.Faults != "" && !s.Naive {
		return distrib.WorkerSpec{}, 0, nil, fmt.Errorf(
			"spec %s: distributed replay cannot run the failure-aware resilience layer "+
				"(per-user circuit state spans windows); set \"naive\": true or run single-process", path)
	}
	if s.PoolDivisor > 0 {
		return distrib.WorkerSpec{}, 0, nil, fmt.Errorf(
			"spec %s: pool_divisor is population-relative; distributed runs need an explicit pool_bytes", path)
	}
	s = s.Normalized()
	ws := distrib.WorkerSpec{
		Seed:        s.Seed,
		Shards:      s.Shards,
		Chunk:       s.Chunk,
		CachePolicy: s.CachePolicy,
		PoolBytes:   s.PoolBytes,
		Faults:      s.Faults,
	}
	return ws, s.Workers, s.TimelineConfig(), nil
}

func runCoordinator(tracePath, checkpoint string, workers, windows int, seed uint64,
	shards, chunk int, specFile string, windowHrs float64, verify, inprocess bool,
	heartbeat time.Duration, attempts, haltAfter, crashWin int, common *scenario.Common) error {
	if err := common.Validate(); err != nil {
		return err
	}
	if common.Pprof != "" {
		go scenario.ServePprof(common.Pprof, log.Printf)
	}
	spec := workerSpec(seed, shards, chunk, common, common.Metrics != "")
	var timeline *replay.TimelineConfig
	if windowHrs > 0 {
		timeline = &replay.TimelineConfig{Window: time.Duration(windowHrs * float64(time.Hour))}
	}
	if specFile != "" {
		ws, specWorkers, tl, err := loadSpecFile(specFile)
		if err != nil {
			return err
		}
		ws.Metrics = common.Metrics != ""
		spec = ws
		if workers == 0 {
			workers = specWorkers
		}
		if timeline == nil {
			timeline = tl
		}
	}
	var runner distrib.Runner
	if !inprocess {
		bin, err := os.Executable()
		if err != nil {
			return err
		}
		runner = execRunner{bin: bin}
	}
	co, err := distrib.New(distrib.Config{
		TracePath:        tracePath,
		Workers:          workers,
		Windows:          windows,
		CheckpointDir:    checkpoint,
		Spec:             spec,
		Runner:           runner,
		HeartbeatTimeout: heartbeat,
		MaxAttempts:      attempts,
		Timeline:         timeline,
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
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()

	tot := merged.Engine.Totals()
	fmt.Printf("\ndistributed replay: %d tasks over %d window(s), %d worker(s), %.1fs wall\n",
		tot.Tasks, len(merged.Windows), workers, elapsed)
	fmt.Printf("failure ratio:      %5.1f%%\n", merged.FailureRatio()*100)
	fmt.Printf("cloud bytes:        %.3g\n", merged.CloudBytes())
	var busy float64
	for i, w := range merged.Windows {
		rate := float64(w.Limit) / merged.Seconds[i]
		busy += merged.Seconds[i]
		fmt.Printf("  window %2d %-22s %8.1fs  %9.0f tasks/s\n", i, w, merged.Seconds[i], rate)
	}
	if elapsed > 0 {
		fmt.Printf("worker-seconds:     %.1fs over %.1fs wall (%.2fx parallelism)\n",
			busy, elapsed, busy/elapsed)
	}
	fmt.Printf("merged digest:      sha256:%x\n", sha256.Sum256([]byte(merged.Digest())))
	if merged.Timeline != nil {
		fmt.Printf("timeline:           %v windows over %v\n", merged.Timeline.Window, merged.Timeline.Span)
	}
	if err := scenario.DumpRegistry(os.Stderr, merged.Metrics, common.Metrics); err != nil {
		return err
	}

	if verify {
		fmt.Printf("\nverifying against a single-process replay of %s...\n", tracePath)
		ref, err := distrib.SingleProcess(tracePath, spec, nil)
		if err != nil {
			return err
		}
		if ref.Digest() == merged.Digest() {
			fmt.Println("DISTRIB verdict: PASS (merged digest byte-identical to single-process)")
		} else {
			fmt.Println("DISTRIB verdict: FAIL (merged digest differs from single-process)")
			return fmt.Errorf("digest mismatch: merged sha256:%x, single-process sha256:%x",
				sha256.Sum256([]byte(merged.Digest())), sha256.Sum256([]byte(ref.Digest())))
		}
	}
	return nil
}

// runWorker is -worker mode: replay one window, write the partial, and
// emit throttled "hb N" heartbeat lines on stdout for the supervisor.
func runWorker(tracePath, windowSpec, outPath string, seed uint64, shards, chunk int,
	crashAfter int64, metrics bool, common *scenario.Common) error {
	if err := common.Validate(); err != nil {
		return err
	}
	if tracePath == "" || windowSpec == "" || outPath == "" {
		return errors.New("worker mode needs -trace, -window OFF,LIM, and -out")
	}
	var off, lim int64
	if _, err := fmt.Sscanf(windowSpec, "%d,%d", &off, &lim); err != nil {
		return fmt.Errorf("bad -window %q (want OFF,LIM): %v", windowSpec, err)
	}
	req := distrib.WorkerRequest{
		TracePath:   tracePath,
		Window:      distrib.Window{Offset: off, Limit: lim},
		Spec:        workerSpec(seed, shards, chunk, common, metrics),
		PartialPath: outPath,
		CrashAfter:  crashAfter,
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	var last time.Time
	beat := func(n int64) {
		if now := time.Now(); now.Sub(last) >= 200*time.Millisecond {
			last = now
			fmt.Fprintf(out, "hb %d\n", n)
			out.Flush()
		}
	}
	if err := distrib.RunWorker(context.Background(), req, beat); err != nil {
		return err
	}
	fmt.Fprintf(out, "done %d,%d\n", off, lim)
	return nil
}

// execRunner runs each window as a subprocess of this same binary in
// -worker mode, forwarding its "hb N" stdout lines as heartbeats. A
// canceled context kills the process.
type execRunner struct {
	bin string
}

func (r execRunner) Run(ctx context.Context, req distrib.WorkerRequest, beat func(records int64)) error {
	args := []string{
		"-worker",
		"-trace", req.TracePath,
		"-window", fmt.Sprintf("%d,%d", req.Window.Offset, req.Window.Limit),
		"-out", req.PartialPath,
		"-seed", strconv.FormatUint(req.Spec.Seed, 10),
		"-shards", strconv.Itoa(req.Spec.Shards),
		"-chunk", strconv.Itoa(req.Spec.Chunk),
	}
	if req.Spec.CachePolicy != "" {
		args = append(args, "-cache-policy", req.Spec.CachePolicy)
	}
	if req.Spec.PoolBytes != 0 {
		args = append(args, "-pool-bytes", strconv.FormatInt(req.Spec.PoolBytes, 10))
	}
	if req.Spec.Faults != "" {
		args = append(args, "-faults", req.Spec.Faults)
	}
	if req.Spec.Metrics {
		args = append(args, "-worker-metrics")
	}
	if req.CrashAfter > 0 {
		args = append(args, "-crash-after", strconv.FormatInt(req.CrashAfter, 10))
	}
	cmd := exec.CommandContext(ctx, r.bin, args...)
	cmd.Stderr = os.Stderr
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
