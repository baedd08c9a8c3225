package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"odr/internal/backend"
	"odr/internal/faults"
	"odr/internal/obs"
	"odr/internal/replay"
	"odr/internal/smartap"
	"odr/internal/trace"
)

// replayRun is replay-static and replay-stress: the shared bin trace
// through replay.RunODRStream at P shards. Static is the lean engine
// path — static pool, no faults, no registry. Stress turns every feature
// on: fault injection with the default resilience policy, the band cache
// policy on a pool squeezed to a twelfth of the population, a metrics
// registry, and a timeline; then it exports what an operator would read.
type replayRun struct {
	e      *env
	name   string
	stress bool
	tr     *sharedTrace
	want   string // sha256 of the result digest, fixed by the warm-up
}

func (w *replayRun) setup(ctx context.Context) error {
	var err error
	if w.tr, err = buildSharedTrace(w.e); err != nil {
		return err
	}
	w.want = ""
	s, err := w.one(ctx, nil, 0) // warm-up; fixes the reference digest
	if err != nil {
		return err
	}
	if s.failed != 0 {
		return fmt.Errorf("%s: warm-up replayed %d of %d records", w.name, s.records-s.failed, s.records)
	}
	return w.e.checkPin(w.name, w.want)
}

func (w *replayRun) teardown() {}

func (w *replayRun) measure(ctx context.Context, seconds float64) (*measurement, error) {
	return iterate(ctx, w.e, seconds, selfUsage, w.want, w.one)
}

func (w *replayRun) traced(ctx context.Context, tr *tracer, parent int) (float64, map[string]float64, error) {
	return tracedOnce(ctx, tr, parent, w.one)
}

// stressOptions arms every replay feature over a trace whose population
// weighs popBytes.
func stressOptions(e *env, popBytes int64, reg *obs.Registry) (replay.Options, error) {
	fs, err := faults.ParseSpec(e.sc.Faults)
	if err != nil {
		return replay.Options{}, err
	}
	return replay.Options{
		Seed:        e.seed,
		Shards:      e.P,
		Faults:      &fs,
		Resilience:  &backend.RetryPolicy{},
		CachePolicy: "band",
		PoolBytes:   popBytes / e.sc.PoolDivisor,
		Metrics:     reg,
		Timeline:    &replay.TimelineConfig{Window: time.Duration(e.sc.TimelineHours) * time.Hour},
	}, nil
}

func (w *replayRun) one(ctx context.Context, tr *tracer, parent int) (sample, error) {
	opts := replay.Options{Seed: w.e.seed, Shards: w.e.P}
	var reg *obs.Registry
	if w.stress {
		reg = obs.NewRegistry()
		var err error
		if opts, err = stressOptions(w.e, w.tr.popBytes, reg); err != nil {
			return sample{}, err
		}
	}
	start := time.Now()

	sp := tr.start(parent, "trace.OpenWorkloadFile")
	src, _, closer, err := trace.OpenWorkloadFile(w.tr.path)
	tr.end(sp, 0)
	if err != nil {
		return sample{}, err
	}
	defer closer.Close()

	// The engine's reader pulls records while the shards work; the summed
	// child span is the reader's time inside the decoder.
	sp = tr.start(parent, "replay.RunODRStream")
	src, done := tr.traceSource(src, sp, "trace.binSource.Next")
	res, err := replay.RunODRStream(src, w.tr.files, smartap.Benchmarked(), opts)
	done()
	if err != nil {
		tr.end(sp, 0)
		return sample{}, err
	}
	tr.end(sp, int64(len(res.Tasks)))

	sp = tr.start(parent, "replay.ODRResult.Digest")
	got := sha256Hex(res.Digest())
	tr.end(sp, 0)

	if w.stress {
		sp = tr.start(parent, "obs.Registry.Snapshot")
		snap := reg.Snapshot()
		tr.end(sp, 0)
		sp = tr.start(parent, "obs.WritePrometheus")
		err = obs.WritePrometheus(io.Discard, snap)
		tr.end(sp, 0)
		if err != nil {
			return sample{}, err
		}
		sp = tr.start(parent, "replay.WriteTimelineCSV")
		err = replay.WriteTimelineCSV(io.Discard, res.Timeline)
		tr.end(sp, 0)
		if err != nil {
			return sample{}, err
		}
	}

	s := sample{wall: time.Since(start), records: int64(w.tr.records)}
	if w.want == "" {
		w.want = got
	}
	if got != w.want || len(res.Tasks) != w.tr.records {
		fmt.Fprintf(w.e.log, "%s: check failed: digest %s over %d tasks; want %s over %d\n",
			w.name, got, len(res.Tasks), w.want, w.tr.records)
		s.failed = s.records
	}
	return s, ctx.Err()
}
