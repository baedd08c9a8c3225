package faults

import (
	"sync"
	"time"

	"odr/internal/backend"
	"odr/internal/obs"
)

// Injector wraps one backend with the spec's fault classes. It is safe
// for concurrent use: the schedules are immutable after construction,
// per-operation draws come from the request's own RNG substream, and an
// injection is counted in the request's tally (backend.Request.Tally,
// the engine shard's own, folded by FoldTally) or, on a request with no
// tally, in the atomic counters.
type Injector struct {
	inner   backend.Backend
	spec    Spec
	offline schedule
	slow    schedule
	// slot is the inner backend's slot in a request's tally.
	slot int

	// injected counts by class, in classNames order.
	injected [len(classNames)]*obs.Counter
}

// The fault classes, numbered as Injector.injected and a tally's Faults
// count them.
const (
	classOffline = iota
	classTransient
	classStagnation
	classDegraded
)

// classNames labels the classes' injection counters.
var classNames = [...]string{"offline", "transient", "stagnation", "degraded"}

// New wraps inner with spec's faults, deriving the backend's episode
// schedules from seed. reg receives odr_faults_injected_total counters
// (nil disables).
func New(inner backend.Backend, spec Spec, seed uint64, reg *obs.Registry) *Injector {
	spec = spec.withDefaults()
	j := &Injector{inner: inner, spec: spec, slot: backend.TallySlot(inner.Name())}
	j.offline, j.slow = schedulesFor(spec, seed, inner.Name())
	j.Instrument(reg)
	return j
}

// Instrument resolves the injection counters (nil reg disables).
func (j *Injector) Instrument(reg *obs.Registry) {
	for c, class := range classNames {
		j.injected[c] = reg.Counter(obs.Label(MetricInjected, "backend", j.inner.Name(), "class", class))
	}
}

// inject counts one injection of class, to the request's tally or the
// counter.
func (j *Injector) inject(req *backend.Request, class int) {
	if t := req.Tally.Slot(j.slot); t != nil {
		t.Faults[class]++
		return
	}
	j.injected[class].Inc()
}

// FoldTally implements backend.Folder: it adds a shard tally's
// injections on the wrapped backend, then passes the tally down.
func (j *Injector) FoldTally(t *backend.Tally) {
	if st := t.Slot(j.slot); st != nil {
		for c, n := range st.Faults {
			j.injected[c].Add(n)
		}
	}
	backend.FoldInner(j.inner, t)
}

// WrapFleet layers an Injector over every distinct backend in the fleet.
func WrapFleet(f *backend.Fleet, spec Spec, seed uint64, reg *obs.Registry) *backend.Fleet {
	return f.Wrap(func(b backend.Backend) backend.Backend {
		return New(b, spec, seed, reg)
	})
}

// Name implements Backend.
func (j *Injector) Name() string { return j.inner.Name() }

// Ledger implements Backend.
func (j *Injector) Ledger() *backend.Ledger { return j.inner.Ledger() }

// Health implements backend.HealthReporter from the schedules alone — no
// draws, so consulting health never perturbs a request's substream.
func (j *Injector) Health(req *backend.Request) backend.Health {
	return j.healthAt(req.When)
}

func (j *Injector) healthAt(t time.Duration) backend.Health {
	if j.offline.at(t) {
		return backend.Unavailable
	}
	if j.slow.at(t) {
		return backend.Impaired
	}
	return backend.Healthy
}

// Probe implements Backend. An offline backend answers no probe, and a
// transient fault can hide a cached file (a failed lookup RPC); both
// push the decide path toward a safer route rather than failing anything.
func (j *Injector) Probe(req *backend.Request) bool {
	if j.offline.at(req.When) {
		return false
	}
	ok := j.inner.Probe(req)
	if ok && j.spec.Transient > 0 && req.RNG.Bool(j.spec.Transient) {
		j.inject(req, classTransient)
		return false
	}
	return ok
}

// PreDownload implements Backend with faults injected around the inner
// attempt: offline windows and transient errors fail it outright,
// stagnation freezes delay or kill an otherwise successful attempt, and
// degraded episodes scale its rate down (and its duration up).
func (j *Injector) PreDownload(req *backend.Request) backend.PreResult {
	if j.offline.at(req.When) {
		j.inject(req, classOffline)
		return backend.PreResult{Delay: offlineStall, Cause: backend.CauseOffline}
	}
	if j.spec.Transient > 0 && req.RNG.Bool(j.spec.Transient) {
		j.inject(req, classTransient)
		return backend.PreResult{Delay: j.stall(req), Cause: backend.CauseTransient}
	}
	out := j.inner.PreDownload(req)
	if !out.OK {
		return out
	}
	if j.spec.Stagnation > 0 && req.RNG.Bool(j.spec.Stagnation) {
		j.inject(req, classStagnation)
		freeze := time.Duration(req.RNG.Exponential(float64(j.spec.GiveUp) / 2))
		if freeze >= j.spec.GiveUp {
			return backend.PreResult{Delay: out.Delay + j.spec.GiveUp, Cause: backend.CauseStagnation}
		}
		out.Delay += freeze
	}
	if j.slow.at(req.When) {
		j.inject(req, classDegraded)
		factor := req.RNG.Uniform(degradedFloorBW, degradedCeilBW)
		out.Rate *= factor
		out.Delay = time.Duration(float64(out.Delay) / factor)
	}
	return out
}

// Fetch implements Backend, mirroring PreDownload's injection order. A
// survivable mid-fetch freeze lowers the perceived rate (same bytes,
// freeze added to the transfer time); a freeze reaching GiveUp fails the
// fetch.
func (j *Injector) Fetch(req *backend.Request) backend.FetchResult {
	if j.offline.at(req.When) {
		j.inject(req, classOffline)
		return backend.FetchResult{Delay: offlineStall, Cause: backend.CauseOffline}
	}
	if j.spec.Transient > 0 && req.RNG.Bool(j.spec.Transient) {
		j.inject(req, classTransient)
		return backend.FetchResult{Delay: j.stall(req), Cause: backend.CauseTransient}
	}
	out := j.inner.Fetch(req)
	if !out.OK {
		return out
	}
	if j.spec.Stagnation > 0 && req.RNG.Bool(j.spec.Stagnation) {
		j.inject(req, classStagnation)
		freeze := time.Duration(req.RNG.Exponential(float64(j.spec.GiveUp) / 2))
		if freeze >= j.spec.GiveUp {
			return backend.FetchResult{Delay: j.spec.GiveUp, Cause: backend.CauseStagnation}
		}
		if out.Rate > 0 {
			size := float64(req.File.Size)
			out.Rate = size / (size/out.Rate + freeze.Seconds())
		}
	}
	if j.slow.at(req.When) {
		j.inject(req, classDegraded)
		out.Rate *= req.RNG.Uniform(degradedFloorBW, degradedCeilBW)
	}
	return out
}

// stall draws a transient error's short stall.
func (j *Injector) stall(req *backend.Request) time.Duration {
	return time.Duration(req.RNG.Exponential(float64(transientStall)))
}

var (
	_ backend.Backend        = (*Injector)(nil)
	_ backend.HealthReporter = (*Injector)(nil)
	_ backend.Folder         = (*Injector)(nil)
)

// Clock answers "how healthy is this backend right now" from the episode
// schedules alone, for services (cmd/odrserver) that surface fault
// status without replaying anything. Schedules are derived lazily per
// backend name and cached.
type Clock struct {
	spec Spec
	seed uint64

	mu    sync.Mutex
	cache map[string][2]schedule
}

// NewClock builds a schedule clock for spec and seed.
func NewClock(spec Spec, seed uint64) *Clock {
	return &Clock{
		spec:  spec.withDefaults(),
		seed:  seed,
		cache: make(map[string][2]schedule),
	}
}

// Span returns the schedule horizon (services typically wrap wall time
// modulo this).
func (c *Clock) Span() time.Duration { return c.spec.Span }

// Health reports the named backend's scheduled health at trace time at.
func (c *Clock) Health(name string, at time.Duration) backend.Health {
	c.mu.Lock()
	s, ok := c.cache[name]
	if !ok {
		s[0], s[1] = schedulesFor(c.spec, c.seed, name)
		c.cache[name] = s
	}
	c.mu.Unlock()
	if s[0].at(at) {
		return backend.Unavailable
	}
	if s[1].at(at) {
		return backend.Impaired
	}
	return backend.Healthy
}
