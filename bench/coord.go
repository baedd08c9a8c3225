package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"odr/internal/distrib"
)

// coordRun is coord-windows: the built odrcoord tiles the shared trace
// into Windows record windows and replays them in P real worker
// processes, from a fresh checkpoint directory every iteration. What it
// costs beyond a single-process replay — three passes per worker, partial
// files, manifest fsyncs, the merge — shows here and nowhere else.
type coordRun struct {
	e    *env
	tr   *sharedTrace
	spec distrib.WorkerSpec
	want string // sha256 of the single-process digest, computed in set-up
	iter int
	// lastSeconds is the latest iteration's per-window worker wall.
	lastSeconds []float64
}

func (w *coordRun) setup(ctx context.Context) error {
	var err error
	if w.tr, err = buildSharedTrace(w.e); err != nil {
		return err
	}
	w.spec = distrib.WorkerSpec{
		Seed:        w.e.seed,
		Shards:      1,
		CachePolicy: "band",
		PoolBytes:   w.tr.popBytes / w.e.sc.PoolDivisor,
		Faults:      w.e.sc.Faults,
	}
	// Whatever the seed, the merged report must be the single-process
	// replay of the same spec, byte for byte.
	ref, err := distrib.SingleProcess(w.tr.path, w.spec, nil)
	if err != nil {
		return err
	}
	w.want = sha256Hex(ref.Digest())
	if err := w.e.checkPin("coord-windows", w.want); err != nil {
		return err
	}
	s, err := w.one(ctx, nil, 0) // warm-up
	if err != nil {
		return err
	}
	if s.failed != 0 {
		return fmt.Errorf("coord-windows: warm-up run did not reproduce the single-process digest")
	}
	return nil
}

func (w *coordRun) teardown() {}

func (w *coordRun) measure(ctx context.Context, seconds float64) (*measurement, error) {
	usage := childrenUsage
	if w.e.binDir == "" {
		usage = selfUsage
	}
	m, err := iterate(ctx, w.e, seconds, usage, w.want, w.one)
	if err == nil && len(w.lastSeconds) > 0 {
		m.notes = append(m.notes, fmt.Sprintf("last iteration: window 0 %.3fs, window %d %.3fs (same record count; the gap is the offset-dependent start-up)",
			w.lastSeconds[0], len(w.lastSeconds)-1, w.lastSeconds[len(w.lastSeconds)-1]))
	}
	return m, err
}

func (w *coordRun) traced(ctx context.Context, tr *tracer, parent int) (float64, map[string]float64, error) {
	return tracedOnce(ctx, tr, parent, w.one)
}

func (w *coordRun) one(ctx context.Context, tr *tracer, parent int) (sample, error) {
	w.iter++
	ckpt := filepath.Join(w.e.dir, "ckpt-"+strconv.Itoa(w.iter))
	defer os.RemoveAll(ckpt)

	start := time.Now()
	sp := tr.start(parent, "distrib.odrcoord")
	var got string
	var err error
	if w.e.binDir != "" {
		got, err = w.execCoordinator(ctx, ckpt)
	} else {
		got, err = w.inProcess(ctx, ckpt)
	}
	tr.end(sp, int64(w.tr.records))
	if err != nil {
		return sample{}, err
	}
	end := time.Now()
	s := sample{wall: end.Sub(start), records: int64(w.tr.records)}

	// The manifest carries each window's worker wall time in full
	// precision (the coordinator prints tenths of a second).
	man, err := distrib.LoadManifest(filepath.Join(ckpt, distrib.ManifestName))
	if err != nil {
		return sample{}, err
	}
	w.lastSeconds = w.lastSeconds[:0]
	for i, mw := range man.Windows {
		w.lastSeconds = append(w.lastSeconds, mw.Seconds)
		// Workers overlap P at a time and report only a duration, so
		// these are worker-seconds hung under the coordinator's span,
		// not a timeline.
		tr.addInterval(sp, fmt.Sprintf("distrib.worker.window%d", i), end,
			time.Duration(mw.Seconds*float64(time.Second)), mw.Limit)
	}

	if got != w.want || man.Done() != len(man.Windows) {
		fmt.Fprintf(w.e.log, "coord-windows: check failed: merged %s with %d/%d windows done; single-process %s\n",
			got, man.Done(), len(man.Windows), w.want)
		s.failed = s.records
	}
	return s, nil
}

// execCoordinator runs the built odrcoord and returns its merged digest.
func (w *coordRun) execCoordinator(ctx context.Context, ckpt string) (string, error) {
	cmd := command(ctx, w.e.P, filepath.Join(w.e.binDir, "odrcoord"),
		"-trace", w.tr.path,
		"-checkpoint", ckpt,
		"-workers", strconv.Itoa(w.e.P),
		"-windows", strconv.Itoa(w.e.sc.Windows),
		"-seed", strconv.FormatUint(w.spec.Seed, 10),
		"-shards", strconv.Itoa(w.spec.Shards),
		"-cache-policy", w.spec.CachePolicy,
		"-pool-bytes", strconv.FormatInt(w.spec.PoolBytes, 10),
		"-faults", w.spec.Faults)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("odrcoord: %w\n%s", err, stderr.String())
	}
	const marker = "merged digest:"
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, marker) {
			return strings.TrimPrefix(strings.TrimSpace(strings.TrimPrefix(line, marker)), "sha256:"), nil
		}
	}
	return "", fmt.Errorf("odrcoord printed no %q line:\n%s", marker, out)
}

// inProcess is the smoke test's stand-in: the same coordinator with
// goroutine workers, no built binary needed.
func (w *coordRun) inProcess(ctx context.Context, ckpt string) (string, error) {
	co, err := distrib.New(distrib.Config{
		TracePath:     w.tr.path,
		Workers:       w.e.P,
		Windows:       w.e.sc.Windows,
		CheckpointDir: ckpt,
		Spec:          w.spec,
	})
	if err != nil {
		return "", err
	}
	merged, err := co.Run(ctx)
	if err != nil {
		return "", err
	}
	return sha256Hex(merged.Digest()), nil
}
