package backend

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"odr/internal/obs"
)

// Fault cause tokens. The fault-injection layer (internal/faults) stamps
// these onto failed results so the resilience policy can tell an
// environmental fault (worth retrying, evidence of backend trouble) from
// a model failure (dead swarm, bad server — a property of the file, not
// the backend). The prefix convention lives here, below the injector, so
// both layers agree without an import cycle.
const (
	// CauseTransient: a short-lived connection/protocol error; the next
	// attempt draws fresh randomness and may succeed.
	CauseTransient = "fault:transient"
	// CauseStagnation: progress froze past the client's patience.
	CauseStagnation = "fault:stagnation"
	// CauseOffline: the backend sat inside a churn (offline) window;
	// retrying inside the window cannot help.
	CauseOffline = "fault:offline"
)

// IsFaultCause reports whether a failure cause was injected by the fault
// layer rather than produced by the download model.
func IsFaultCause(cause string) bool { return strings.HasPrefix(cause, "fault:") }

// retryable reports whether a failure is worth retrying on the same
// backend: transient errors and stagnation freezes are; offline windows
// and model failures are not.
func retryable(cause string) bool {
	return cause == CauseTransient || cause == CauseStagnation
}

// Resilience metric names.
const (
	// MetricRetries counts retry attempts (not first attempts), labeled
	// by backend.
	MetricRetries = "odr_retries_total"
	// MetricCircuitOpens counts breaker open transitions, labeled by
	// backend.
	MetricCircuitOpens = "odr_circuit_opens_total"
	// MetricCircuitState is the number of per-user circuit breakers still
	// open at the end of the replay, labeled by backend. It is written
	// once after the run (an order-independent scan), so its value is
	// identical for every shard count.
	MetricCircuitState = "odr_circuit_state"
)

// RetryPolicy tunes the Resilient wrapper. The zero value selects the
// defaults noted on each field.
type RetryPolicy struct {
	// MaxAttempts bounds total attempts per operation (default 3).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff (default 2s); attempt k
	// waits BaseBackoff·2^(k-1), jittered, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff (default 1m).
	MaxBackoff time.Duration
	// OpTimeout is the per-operation patience: a failed attempt charges
	// at most this much delay, modeling a client that cancels a stuck
	// operation instead of waiting out the backend's own stagnation
	// timeout (default 15m).
	OpTimeout time.Duration
	// BreakerThreshold opens a user's circuit after this many
	// consecutive fault-class failures on the backend (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects the backend on
	// the trace clock before a trial attempt is allowed (default 2h).
	BreakerCooldown time.Duration
}

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 2 * time.Second
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Minute
	}
	if p.OpTimeout <= 0 {
		p.OpTimeout = 15 * time.Minute
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 3
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 2 * time.Hour
	}
	return p
}

// breaker is one user's circuit state on one backend.
type breaker struct {
	consec    int
	openUntil time.Duration
}

// Resilient wraps a backend with the failure policy: bounded retry with
// exponential backoff + jitter, a per-operation timeout, and per-user
// circuit breaking. All randomness (the jitter) is drawn from the
// request's RNG substream and all waiting is virtual (accumulated into
// the result's Delay), so wrapped replays stay byte-identical across
// shard counts.
//
// Concurrency: breakers hold one slot per user ordinal (see Population).
// The replay engine partitions requests by user, so a user's requests run
// in ascending index order on exactly one shard worker, and that worker is
// the only goroutine that reads or writes the user's slot — no lock, and
// the same state sequence for any shard count. The slot's page exists
// before the first request for the user executes: the reader resolved the
// ordinal before the dispatch send, and the table's directory was sized
// for the replay up front (Set.Reserve, then WrapResilient). A request
// without ordinals resolves its user by ID and touches its slot under mu;
// mu guards nothing an engine worker touches.
type Resilient struct {
	inner Backend
	pol   RetryPolicy
	pop   *Population
	// slot is the inner backend's slot in a request's Tally (TallySlot).
	slot int

	mu       sync.Mutex
	breakers table[breaker]
	// maxWhen tracks the latest trace time any operation saw: a max, hence
	// order-independent, taken atomically by requests with no tally and
	// by FoldTally from each shard's own max. FinishMetrics uses it as
	// "end of replay" when counting still-open breakers.
	maxWhen atomic.Int64

	retries *obs.Counter
	opens   *obs.Counter
	state   *obs.Gauge
}

// NewResilient wraps inner with pol (zero fields take defaults). Its users
// are numbered by a population of its own; WrapResilient shares the
// fleet's instead.
func NewResilient(inner Backend, pol RetryPolicy) *Resilient {
	return newResilient(inner, pol, NewPopulation(nil))
}

func newResilient(inner Backend, pol RetryPolicy, pop *Population) *Resilient {
	r := &Resilient{inner: inner, pol: pol.withDefaults(), pop: pop, slot: TallySlot(inner.Name())}
	r.breakers.reserve(pop.userCap)
	return r
}

// Instrument resolves the wrapper's metric handles (nil reg disables).
func (r *Resilient) Instrument(reg *obs.Registry) {
	name := r.inner.Name()
	r.retries = reg.Counter(obs.Label(MetricRetries, "backend", name))
	r.opens = reg.Counter(obs.Label(MetricCircuitOpens, "backend", name))
	r.state = reg.Gauge(obs.Label(MetricCircuitState, "backend", name))
}

// FoldTally implements Folder: it adds a shard tally's retries, breaker
// opens and latest trace time for the wrapped backend, then passes the
// tally down to the wrapped backend.
func (r *Resilient) FoldTally(t *Tally) {
	if st := t.Slot(r.slot); st != nil {
		r.retries.Add(st.retries)
		r.opens.Add(st.opens)
		r.seen(st.maxWhen)
	}
	FoldInner(r.inner, t)
}

// seen raises maxWhen to at least when (an atomic max).
func (r *Resilient) seen(when time.Duration) {
	for {
		cur := r.maxWhen.Load()
		if int64(when) <= cur || r.maxWhen.CompareAndSwap(cur, int64(when)) {
			return
		}
	}
}

// FinishMetrics publishes the end-of-run circuit gauge: how many user
// circuits are still open past the last trace instant any request
// touched. Call after the replay joins and its tallies are folded.
func (r *Resilient) FinishMetrics() {
	if r.state == nil {
		return
	}
	end := time.Duration(r.maxWhen.Load())
	r.mu.Lock()
	open := 0
	for i, n := 0, r.pop.numUsers(); i < n; i++ {
		if b := r.breakers.peek(i); b != nil && b.openUntil > end {
			open++
		}
	}
	r.mu.Unlock()
	r.state.Set(int64(open))
}

// Name implements Backend.
func (r *Resilient) Name() string { return r.inner.Name() }

// Ledger implements Backend.
func (r *Resilient) Ledger() *Ledger { return r.inner.Ledger() }

// Probe implements Backend; probing is cheap and side-effect-free, so it
// passes straight through.
func (r *Resilient) Probe(req *Request) bool { return r.inner.Probe(req) }

// Health implements HealthReporter: an open circuit makes the backend
// Unavailable for this user; otherwise the inner backend's own report
// (fault windows) stands.
func (r *Resilient) Health(req *Request) Health {
	if r.circuitOpen(req) {
		return Unavailable
	}
	if hr, ok := r.inner.(HealthReporter); ok {
		return hr.Health(req)
	}
	return Healthy
}

// PreDownload implements Backend with the retry policy.
func (r *Resilient) PreDownload(req *Request) PreResult {
	out := r.inner.PreDownload(req)
	var waited time.Duration
	for attempt := 1; !out.OK && retryable(out.Cause) && attempt < r.pol.MaxAttempts; attempt++ {
		waited += r.clampOp(out.Delay) + r.backoff(req, attempt)
		r.retry(req)
		out = r.inner.PreDownload(req)
	}
	if !out.OK {
		out.Delay = r.clampOp(out.Delay)
	}
	out.Delay += waited
	r.observe(req, out.OK, out.Cause)
	return out
}

// Fetch implements Backend with the retry policy. A failed attempt's
// stall (clamped to OpTimeout) and the backoff both accumulate into the
// final result's Delay.
func (r *Resilient) Fetch(req *Request) FetchResult {
	out := r.inner.Fetch(req)
	var waited time.Duration
	for attempt := 1; !out.OK && retryable(out.Cause) && attempt < r.pol.MaxAttempts; attempt++ {
		waited += r.clampOp(out.Delay) + r.backoff(req, attempt)
		r.retry(req)
		out = r.inner.Fetch(req)
	}
	if !out.OK {
		out.Delay = r.clampOp(out.Delay)
	}
	out.Delay += waited
	r.observe(req, out.OK, out.Cause)
	return out
}

// retry counts one retry attempt, to the request's tally or the handle.
func (r *Resilient) retry(req *Request) {
	if t := req.Tally.Slot(r.slot); t != nil {
		t.retries++
		return
	}
	r.retries.Inc()
}

// clampOp caps a failed attempt's charged delay at the per-operation
// timeout.
func (r *Resilient) clampOp(d time.Duration) time.Duration {
	if d > r.pol.OpTimeout {
		return r.pol.OpTimeout
	}
	return d
}

// backoff returns the jittered exponential backoff before retry number
// attempt (1-based). The jitter is drawn from the request's RNG
// substream: a pure function of (seed, index, draw position), so replays
// are byte-identical no matter which goroutine runs them.
func (r *Resilient) backoff(req *Request, attempt int) time.Duration {
	d := r.pol.BaseBackoff << uint(attempt-1)
	if d <= 0 || d > r.pol.MaxBackoff {
		d = r.pol.MaxBackoff
	}
	return time.Duration(float64(d) * (0.5 + 0.5*req.RNG.Float64()))
}

// circuitOpen reports whether the requesting user's circuit on this
// backend is open at the request's trace time.
func (r *Resilient) circuitOpen(req *Request) bool {
	b, locked := r.breaker(req)
	open := b.openUntil > req.When
	if locked {
		r.mu.Unlock()
	}
	return open
}

// observe feeds an operation's final outcome into the user's breaker.
// Only fault-class failures count against the backend: a dead swarm says
// nothing about the cloud's health. Successes close the circuit.
func (r *Resilient) observe(req *Request, ok bool, cause string) {
	t := req.Tally.Slot(r.slot)
	if t == nil {
		r.seen(req.When)
	} else if req.When > t.maxWhen {
		t.maxWhen = req.When
	}
	if !ok && !IsFaultCause(cause) {
		return
	}
	b, locked := r.breaker(req)
	if locked {
		defer r.mu.Unlock()
	}
	if ok {
		// Skip the no-op store: neighbouring slots belong to other shards'
		// users, and a write would bounce their cache line.
		if b.consec != 0 {
			b.consec = 0
		}
		return
	}
	b.consec++
	if b.consec >= r.pol.BreakerThreshold {
		b.consec = 0
		b.openUntil = req.When + r.pol.BreakerCooldown
		if t != nil {
			t.opens++
		} else {
			r.opens.Inc()
		}
	}
}

// breaker returns the requesting user's slot. A request with ordinals
// reads the table directly; one without resolves its user by ID and
// returns with r.mu held (locked), for the caller to release.
func (r *Resilient) breaker(req *Request) (b *breaker, locked bool) {
	if req.UserOrd != 0 {
		return r.breakers.at(req.UserOrd.idx()), false
	}
	r.mu.Lock()
	o := r.pop.userByID(req.User)
	r.breakers.reserve(int(o))
	return r.breakers.at(o.idx()), true
}

var (
	_ Backend        = (*Resilient)(nil)
	_ HealthReporter = (*Resilient)(nil)
	_ Folder         = (*Resilient)(nil)
)

// WrapResilient layers the retry/breaker policy over every backend in
// the fleet and instruments the wrappers against reg (nil disables
// metrics). The returned finish func publishes the end-of-run circuit
// gauges; call it after the replay joins and its shards' tallies are
// folded (Fleet.Fold). The wrappers number users with
// the fleet set's Population and size their breaker tables from its
// reservation, so a replay that resolves ordinals calls Set.Reserve first.
func WrapResilient(f *Fleet, pol RetryPolicy, reg *obs.Registry) (*Fleet, func()) {
	var wrappers []*Resilient
	nf := f.Wrap(func(b Backend) Backend {
		w := newResilient(b, pol, f.Set().Population())
		w.Instrument(reg)
		wrappers = append(wrappers, w)
		return w
	})
	return nf, func() {
		for _, w := range wrappers {
			w.FinishMetrics()
		}
	}
}
