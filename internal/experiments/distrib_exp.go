package experiments

import (
	"bufio"
	"context"
	"errors"
	"os"
	"path/filepath"
	"time"

	"odr/internal/distrib"
	"odr/internal/trace"
	"odr/internal/workload"
)

// distribWorkers / distribWindows size EXP-D's coordinated run: three
// concurrent workers over six windows, so the run exercises queueing
// (more windows than workers), a mid-window crash with restart, and a
// halt-and-resume cycle. The digest contract holds for every count, so
// the specific values are not load-bearing.
const (
	distribWorkers = 3
	distribWindows = 6
)

// DistributedReplay is EXP-D: the multi-process replay proof. It writes
// the lab's week to a bin trace file, replays it once single-process as
// the reference, then replays it through the distrib coordinator —
// including a forced mid-window worker crash, a halt after two
// checkpointed windows, and a resume from the manifest — and requires
// the merged digest to be byte-identical to the single-process one. It
// reports per-window worker throughput and the aggregate scaling
// against the single-process run.
//
// Every check lands in a metric (1 = pass) and the final verdict line,
// so scripted runs can grep for "EXPD verdict: PASS". Like EXP-W it is
// not part of All(): it writes a trace file and replays the week several
// times over. Run it by ID.
func (l *Lab) DistributedReplay() *Report {
	r := newReport("EXPD", "Distributed replay: windowed workers, checkpoint/resume, merged-digest exactness")
	pass := true
	fail := func(format string, args ...any) {
		pass = false
		r.addf("FAIL: "+format, args...)
	}

	st, err := workload.GenerateStream(
		workload.DefaultConfig(l.cfg.NumFiles, l.cfg.Seed), workload.DefaultStreamChunk)
	if err != nil {
		panic(err) // config is validated in NewLab; this is a bug
	}
	dir, err := os.MkdirTemp("", "odr-expd-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	tracePath := filepath.Join(dir, "trace.bin")
	f, err := os.Create(tracePath)
	if err != nil {
		panic(err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := trace.WriteWorkloadBinStream(bw, st.Requests()); err != nil {
		panic(err)
	}
	if err := bw.Flush(); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	cen, err := trace.ReadBinCensus(tracePath)
	if err != nil {
		panic(err)
	}
	records := cen.Records
	r.addf("trace: %d files, %d users, %d requests -> %s",
		len(st.Files), len(st.Users), records, tracePath)
	r.metric("requests", float64(records), -1)

	spec := distrib.WorkerSpec{Seed: l.cfg.Seed}

	// Reference: the whole trace in one process, timed.
	start := time.Now()
	ref, err := distrib.SingleProcess(tracePath, spec, nil)
	if err != nil {
		panic(err)
	}
	singleSecs := time.Since(start).Seconds()
	refDigest := ref.Digest()
	r.addf("single-process reference: %d tasks in %.1fs (%.0f req/s)",
		len(ref.Tasks), singleSecs, float64(records)/singleSecs)
	r.metric("single_reqs_per_s", float64(records)/singleSecs, -1)

	// Run 1: crash window 0 mid-replay, halt after two checkpointed
	// windows — the kill-mid-run half of the resume pin.
	ckpt := filepath.Join(dir, "ckpt")
	cfg := distrib.Config{
		TracePath:     tracePath,
		Workers:       distribWorkers,
		Windows:       distribWindows,
		CheckpointDir: ckpt,
		Spec:          spec,
		HaltAfter:     2,
		CrashWindow:   1,
	}
	co, err := distrib.New(cfg)
	if err != nil {
		panic(err)
	}
	if _, err := co.Run(context.Background()); !errors.Is(err, distrib.ErrHalted) {
		fail("halted run returned %v, want ErrHalted", err)
	}
	m, err := distrib.LoadManifest(filepath.Join(ckpt, distrib.ManifestName))
	if err != nil {
		fail("no readable checkpoint after halt: %v", err)
	}
	halted := 0
	if m != nil {
		halted = m.Done()
		r.addf("halt: %d/%d windows checkpointed (window 0 crashed mid-replay and was restarted)",
			halted, len(m.Windows))
	}
	r.metric("halted_windows_done", float64(halted), -1)
	if halted < 2 || (m != nil && halted == len(m.Windows)) {
		fail("halt left %d windows done, want a genuine partial checkpoint", halted)
	}

	// Run 2: resume from the manifest and finish.
	cfg.HaltAfter, cfg.CrashWindow = 0, 0
	co2, err := distrib.New(cfg)
	if err != nil {
		panic(err)
	}
	start = time.Now()
	merged, err := co2.Run(context.Background())
	if err != nil {
		panic(err)
	}
	resumeSecs := time.Since(start).Seconds()
	r.addf("resume: skipped %d completed window(s), finished the rest in %.1fs",
		co2.Resumed, resumeSecs)
	r.metric("resumed_windows", float64(co2.Resumed), -1)
	if co2.Resumed < 2 {
		fail("resume recomputed checkpointed windows (Resumed = %d)", co2.Resumed)
	}

	match := merged.Digest() == refDigest
	if match {
		r.addf("merged digest byte-identical to single-process (incl. after crash + resume)")
	} else {
		fail("merged digest differs from the single-process reference")
	}
	r.metric("digest_match", boolMetric(match), -1)

	// Per-worker throughput scaling: each window's worker reads the census
	// from the trace's file table and its start state from the
	// coordinator's state pass, and replays only its own records, so
	// per-window rates are over window records while the scaling figure
	// compares whole runs, state pass included.
	r.addf("%-8s %14s %10s %12s", "window", "records", "seconds", "tasks/s")
	var busy float64
	for i, p := range merged.Parts {
		busy += p.Seconds
		r.addf("%-8d %14s %9.1fs %12.0f", i, p.Window, p.Seconds,
			float64(p.Window.Limit)/p.Seconds)
	}
	r.addf("worker-seconds %.1fs across %d workers; fresh coordinated run vs single-process below",
		busy, distribWorkers)

	// A clean coordinated run (no crash, warm OS cache on the trace) for
	// the throughput comparison.
	cfg.CheckpointDir = filepath.Join(dir, "ckpt-clean")
	co3, err := distrib.New(cfg)
	if err != nil {
		panic(err)
	}
	start = time.Now()
	merged3, err := co3.Run(context.Background())
	if err != nil {
		panic(err)
	}
	distSecs := time.Since(start).Seconds()
	if merged3.Digest() != refDigest {
		fail("clean coordinated run's digest differs from the reference")
	}
	speedup := singleSecs / distSecs
	r.addf("scaling: single-process %.1fs vs %d-worker coordinated %.1fs (%.2fx)",
		singleSecs, distribWorkers, distSecs, speedup)
	r.metric("dist_reqs_per_s", float64(records)/distSecs, -1)
	r.metric("speedup", speedup, -1)

	if pass {
		r.addf("EXPD verdict: PASS")
	} else {
		r.addf("EXPD verdict: FAIL")
	}
	r.metric("pass", boolMetric(pass), -1)
	return r
}
