// Package backend abstracts the four places an offline download can run —
// the cloud, the user's smart AP, the user's own device, and the
// cloud-then-AP combination — behind one pluggable interface. The paper's
// contribution (ODR, Figure 15) is precisely a router over such a backend
// fleet; modelling every backend uniformly is what lets the replay engine
// compare them fairly and lets future transports (LEDBAT-scheduled paths,
// peer CDNs) drop in without touching the decision or replay layers.
//
// Every backend is safe for concurrent use by the sharded replay engine:
// all request-scoped randomness flows through the Request's RNG substream,
// mutable state is either immutable after construction (the cloud's warm
// cache) or memoized pure functions of (seed, file) (the cloud's
// pre-download outcomes), and every count is an integer: an engine shard
// charges its requests to a Tally of its own, folded into the shared
// ledgers and metric handles after the run, and a caller with no shard
// charges the shared atomic counters directly. Either way accumulation is
// order-independent and exactly reproducible.
package backend

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"odr/internal/core"
	"odr/internal/dist"
	"odr/internal/smartap"
	"odr/internal/workload"
)

// Request is one replay request bound to its environment: the user, the
// file, the AP the user owns (nil if none), the environment's bandwidth
// ceiling, and a request-scoped RNG substream. The replay engine derives
// RNG from the run seed and the request's global index, so a request's
// outcome is a pure function of (seed, index) no matter which shard or
// goroutine executes it.
type Request struct {
	// Index is the request's global position in the replay sample.
	Index int
	User  *workload.User
	File  *workload.FileMeta
	// AP is the smart AP serving this user, nil when the user has none.
	AP *smartap.AP
	// RNG is the request-scoped random substream.
	RNG *dist.RNG
	// EnvCap is the replay environment's bandwidth ceiling in
	// bytes/second (0 means uncapped).
	EnvCap float64
	// When is the request's position on the trace clock (offset from the
	// trace start). The fault layer derives churn and degraded-bandwidth
	// windows from the seed, so whether a request lands inside an episode
	// is a pure function of (seed, When) — deterministic for any shard
	// count or execution order.
	When time.Duration
	// FileOrd and UserOrd are the file's and the user's ordinals in the
	// cloud's Population, which the replay engine's reader resolves once
	// per record. Zero means unresolved: the backends then resolve by ID
	// through a locked step that answers exactly the same.
	FileOrd, UserOrd Ordinal
	// Tally, when non-nil, is the engine shard's own accounting: the
	// backends and wrappers charge the request's counts there, and the
	// engine folds it into the shared state after its barrier
	// (Fleet.Fold). Nil charges the shared ledgers and handles at once,
	// so a caller with no shard reads them right after each call.
	Tally *Tally
}

// Reset clears the request for reuse. The replay engine pools one Request
// per shard worker and rebinds it to each replayed request; Reset is the
// explicit boundary guaranteeing nothing leaks from one binding to the
// next.
func (r *Request) Reset() { *r = Request{} }

// UsableBW returns the user's access bandwidth clamped to the environment
// ceiling.
func (r *Request) UsableBW() float64 {
	if r.EnvCap > 0 {
		return math.Min(r.User.AccessBW, r.EnvCap)
	}
	return r.User.AccessBW
}

// capped clamps a rate to the environment ceiling.
func (r *Request) capped(rate float64) float64 {
	if r.EnvCap > 0 && rate > r.EnvCap {
		return r.EnvCap
	}
	return rate
}

// PreResult is the outcome of making a file available on a backend.
type PreResult struct {
	// OK reports whether the file was fully pre-downloaded.
	OK bool
	// Rate is the average pre-downloading speed in bytes/second (0 on
	// failure).
	Rate float64
	// Delay is how long the attempt took: size/rate on success, the
	// stagnation timeout on failure.
	Delay time.Duration
	// Traffic is the bytes pulled over the backend's ingress link.
	Traffic float64
	// IOWait is the storage device's iowait ratio while writing at Rate
	// (smart-AP backends only).
	IOWait float64
	// StorageBound reports whether the storage write path was the binding
	// constraint (Bottleneck 4 in action).
	StorageBound bool
	// CloudBytes is upload traffic this step charged to the cloud.
	CloudBytes int64
	// Cause classifies a failure; empty on success.
	Cause string
}

// FetchResult is the outcome of the user-facing transfer of an available
// file.
type FetchResult struct {
	// OK reports whether the user obtained the file.
	OK bool
	// Rate is the user-perceived fetch speed in bytes/second (0 on
	// failure) — the quantity Figure 17 plots.
	Rate float64
	// Delay is the stagnation delay charged on failure (0 on success).
	Delay time.Duration
	// CloudBytes is upload traffic this fetch charged to the cloud.
	CloudBytes int64
	// Cause classifies a failure; empty on success.
	Cause string
}

// Backend is one place a download can run. Implementations must be safe
// for concurrent use and deterministic: given equal Requests (same RNG
// substream), equal results.
type Backend interface {
	// Name identifies the backend; terminal-route backends use the
	// matching core.Route name.
	Name() string
	// Probe reports whether the backend can serve the file to this
	// request immediately, without a pre-download step.
	Probe(req *Request) bool
	// PreDownload makes the file available on the backend.
	PreDownload(req *Request) PreResult
	// Fetch runs the user-facing transfer. Callers ensure availability
	// first (Probe or a successful PreDownload) where the backend
	// requires it.
	Fetch(req *Request) FetchResult
	// Ledger exposes the backend's accumulated metrics.
	Ledger() *Ledger
}

// Ledger accumulates a backend's traffic and outcome counters. All fields
// are integers — float accumulation would not be order-free — charged by
// requests with no Tally as they run and by each engine shard's Tally
// when the engine folds it, so concurrent shards produce exactly the same
// totals regardless of execution order.
type Ledger struct {
	preDownloads atomic.Int64
	fetches      atomic.Int64
	failures     atomic.Int64
	bytesOut     atomic.Int64
	bytesOutHP   atomic.Int64
}

// PreDownloads returns how many pre-download attempts ran.
func (l *Ledger) PreDownloads() int64 { return l.preDownloads.Load() }

// Fetches returns how many user-facing fetches ran.
func (l *Ledger) Fetches() int64 { return l.fetches.Load() }

// Failures returns how many attempts (pre-download or fetch) failed.
func (l *Ledger) Failures() int64 { return l.failures.Load() }

// BytesOut returns the bytes this backend served to users or APs.
func (l *Ledger) BytesOut() int64 { return l.bytesOut.Load() }

// BytesOutHP returns the served bytes attributable to highly popular
// files (the Bottleneck 2 ledger).
func (l *Ledger) BytesOutHP() int64 { return l.bytesOutHP.Load() }

// preDownload charges one pre-download attempt: to t, the backend's slot
// of the request's tally, or to the ledger when t is nil.
func (l *Ledger) preDownload(t *SlotTally) {
	if t != nil {
		t.ledger.preDownloads++
		return
	}
	l.preDownloads.Add(1)
}

// fetch charges one user-facing fetch, to t or the ledger.
func (l *Ledger) fetch(t *SlotTally) {
	if t != nil {
		t.ledger.fetches++
		return
	}
	l.fetches.Add(1)
}

// fail charges one failed attempt, to t or the ledger.
func (l *Ledger) fail(t *SlotTally) {
	if t != nil {
		t.ledger.failures++
		return
	}
	l.failures.Add(1)
}

// serve charges one served file, to t or the ledger.
func (l *Ledger) serve(t *SlotTally, f *workload.FileMeta) {
	hp := f.Band() == workload.BandHighlyPopular
	if t != nil {
		t.ledger.bytesOut += f.Size
		if hp {
			t.ledger.bytesOutHP += f.Size
		}
		return
	}
	l.bytesOut.Add(f.Size)
	if hp {
		l.bytesOutHP.Add(f.Size)
	}
}

// add folds a tally's counts into the ledger.
func (l *Ledger) add(c *ledgerCounts) {
	l.preDownloads.Add(c.preDownloads)
	l.fetches.Add(c.fetches)
	l.failures.Add(c.failures)
	l.bytesOut.Add(c.bytesOut)
	l.bytesOutHP.Add(c.bytesOutHP)
}

// Set bundles the four backend implementations over one shared cloud
// state, ready for a core.Decision to resolve against.
type Set struct {
	Cloud       *Cloud
	SmartAP     *SmartAP
	UserDevice  *UserDevice
	CloudThenAP *CloudThenAP
}

// NewSet builds the standard backend fleet over the file population. cfg
// and seed drive the cloud backend; see NewCloud.
func NewSet(files []*workload.FileMeta, cfg CloudConfig, seed uint64) *Set {
	return NewWorld(files, cfg, seed).NewSet()
}

// NewSet builds the standard fleet over the world, its cloud warmed and
// at request 0, as the package's NewSet does.
func (w *World) NewSet() *Set { return newSetOver(w.newCloud(true)) }

// RestoreSet builds the fleet NewSet builds over the world's files,
// configuration and seed, at an observation state Cloud.AppendState wrote
// at request base: its cloud is as if it had observed requests [0, base)
// itself, and the next request it observes must be base. Under a cache
// policy the state replaces the whole pool — entries, index, counters and
// policy state — so the cloud skips the warm draws and fill; a static
// cloud reads the world's warm pool, which its verdicts read, and
// restores only its seen files. The world's slots are reused as they are:
// each is a pure function of the world. A state no such cloud could have
// written is an error, never a later panic. Size the set with Reserve
// before replaying, as after NewSet.
func (w *World) RestoreSet(state []byte, base int) (*Set, error) {
	c := w.newCloud(false)
	if err := c.restoreState(state, base); err != nil {
		return nil, err
	}
	return newSetOver(c), nil
}

// newSetOver builds the standard fleet around the cloud c.
func newSetOver(c *Cloud) *Set {
	return &Set{
		Cloud:       c,
		SmartAP:     NewSmartAP(),
		UserDevice:  NewUserDevice(),
		CloudThenAP: NewCloudThenAP(c),
	}
}

// Population returns the fleet's file and user numbering: the cloud's,
// seeded from the files the set was built over.
func (s *Set) Population() *Population { return s.Cloud.pop }

// Reserve sizes every per-replay table for a replay of n records — the
// cloud's per-file slots and verdict bitset, and the per-user tables of
// resilience wrappers built afterwards — so none grows while workers read
// it. A replay that resolves ordinals calls it after NewSet and before
// wrapping the fleet; callers without ordinals need not.
func (s *Set) Reserve(n int) { s.Cloud.reserve(n) }

// Resolve maps a decision's route to the backend that executes it.
// RouteCloudPreDownload resolves to the cloud: the cloud is the machine
// that acts before the user is told to ask again.
func (s *Set) Resolve(dec core.Decision) Backend {
	b, err := s.ForRoute(dec.Route)
	if err != nil {
		panic(err)
	}
	return b
}

// ForRoute maps a route to its backend.
func (s *Set) ForRoute(r core.Route) (Backend, error) {
	switch r {
	case core.RouteUserDevice:
		return s.UserDevice, nil
	case core.RouteSmartAP:
		return s.SmartAP, nil
	case core.RouteCloud, core.RouteCloudPreDownload:
		return s.Cloud, nil
	case core.RouteCloudThenAP:
		return s.CloudThenAP, nil
	}
	return nil, fmt.Errorf("backend: no backend for route %v", r)
}

// All returns the four backends in a stable order.
func (s *Set) All() []Backend {
	return []Backend{s.Cloud, s.SmartAP, s.UserDevice, s.CloudThenAP}
}

// NameForRoute names the backend a route resolves to, without needing a
// constructed Set (the web service reports it alongside each decision).
func NameForRoute(r core.Route) string {
	switch r {
	case core.RouteUserDevice:
		return "user-device"
	case core.RouteSmartAP:
		return "smart-ap"
	case core.RouteCloud, core.RouteCloudPreDownload:
		return "cloud"
	case core.RouteCloudThenAP:
		return "cloud+smart-ap"
	}
	return r.String()
}
