package scenario

import (
	"odr/internal/obs"
	"odr/internal/replay"
	"odr/internal/smartap"
	"odr/internal/workload"
)

// Result is one executed scenario: the spec that ran (normalized), the
// replay outcome with its timeline, and the run's private metrics
// registry.
type Result struct {
	Spec Spec
	ODR  *replay.ODRResult
	// Registry holds the run's merged observability; every cell of a
	// matrix gets its own so cross-cell merges stay explicit.
	Registry *obs.Registry
	// Files/Users/Requests describe the generated workload; PoolBytes is
	// the resolved cloud pool capacity (0 = scale default).
	Files, Users, Requests int
	PoolBytes              int64
}

// Timeline returns the run's windowed timeline (nil when the spec
// requested none).
func (r *Result) Timeline() *replay.Timeline { return r.ODR.Timeline }

// env is the generated world a scenario replays against. Matrix cells
// that share workload coordinates share one env, so a 3×3 grid over one
// trace generates that trace once.
type env struct {
	files  []*workload.FileMeta
	users  int
	total  int
	sample []workload.Request
	aps    []*smartap.AP
}

// envKey identifies the workload an env was built from.
type envKey struct {
	profile string
	days    int
	files   int
	sample  int
	seed    uint64
}

func (s Spec) envKey() envKey {
	return envKey{profile: s.Profile, days: s.Days, files: s.Files, sample: s.Sample, seed: s.Seed}
}

// buildEnv generates the spec's workload through the bounded-memory
// streaming generator (byte-identical to the materialized path, on
// GOMAXPROCS generation workers) and draws the §5.1 Unicom sample.
func buildEnv(spec Spec) (*env, error) {
	cfg, err := spec.WorkloadConfig()
	if err != nil {
		return nil, err
	}
	st, err := workload.GenerateStream(cfg, workload.DefaultStreamChunk)
	if err != nil {
		return nil, err
	}
	sample, err := workload.UnicomSampleSource(st.RequestsWorkers(0), spec.Sample, spec.Seed)
	if err != nil {
		return nil, err
	}
	return &env{
		files:  st.Files,
		users:  len(st.Users),
		total:  st.TotalRequests(),
		sample: sample,
		aps:    smartap.Benchmarked(),
	}, nil
}

// runCell executes one (validated, normalized) spec against a prepared
// env.
func runCell(spec Spec, e *env) (*Result, error) {
	opts, err := spec.ReplayOptions()
	if err != nil {
		return nil, err
	}
	opts.PoolBytes = spec.ResolvePoolBytes(e.files)
	reg := obs.NewRegistry()
	opts.Metrics = reg

	return &Result{
		Spec:      spec,
		ODR:       replay.RunODR(e.sample, e.files, e.aps, opts),
		Registry:  reg,
		Files:     len(e.files),
		Users:     e.users,
		Requests:  e.total,
		PoolBytes: opts.PoolBytes,
	}, nil
}

// Run executes one scenario end to end: generate the profiled workload,
// draw the sample, compile the spec onto replay options, replay, and
// (when a window is configured) build the timeline.
func Run(spec Spec) (*Result, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e, err := buildEnv(spec)
	if err != nil {
		return nil, err
	}
	return runCell(spec, e)
}
