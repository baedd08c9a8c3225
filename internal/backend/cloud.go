package backend

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"odr/internal/cloud"
	"odr/internal/dist"
	"odr/internal/sources"
	"odr/internal/workload"
)

// CloudConfig parameterizes the cloud backend; it is the cloud
// simulator's own configuration so replay and simulation share one
// calibration.
type CloudConfig = cloud.Config

// WarmProbs is the probability that a file of each popularity band is
// cached at the moment a replayed request arrives. Unlike the week
// simulation's cold-start per-file warm probabilities, these are
// steady-state per-request hit rates: the production cloud keeps serving
// its full workload during the replay weeks, so a random request sees the
// long-run cache state (≈89 % hits overall, ≈70 % for unpopular files).
var WarmProbs = [3]float64{0.70, 0.97, 0.998}

// Cloud is the cloud backend: a warmed deduplicating pool, the shared
// fetch-path model, and source attempts for cache misses. A replay does
// not stress cloud admission, so upload-pool bookkeeping reduces to byte
// accounting in the Ledger.
//
// Each request's cached-or-not verdict is decided once, when the
// sequential observation pass (ObserveOrdinal) reaches the request, and
// latched in a bitset; Probe only reads that bit. In the default static
// mode the warm pool is immutable after construction and a request finds
// its file cached when it is warm or an earlier request named it and the
// file's single pre-download — a pure function of (seed, file), drawn
// from a file-keyed RNG substream — succeeded. Naming a cache policy
// (cloud.Config.CachePolicy) switches the backend to dynamic mode: the
// pool evolves under the policy — lookups refresh placement, successful
// pre-downloads admit files, capacity pressure evicts — and the verdict
// is the pool's lookup. Either way the answer depends only on the index
// order of observation, never on which goroutine got there first.
//
// What is a pure function of the seeded files, the configuration and the
// seed — the population's numbering, the static warm pool, each seeded
// file's warm bit and pre-download outcome — lives in the cloud's World,
// which clouds replaying windows of one trace share; the cloud holds what
// its replay mutates: verdicts, seen bits, a dynamic pool, the ledger.
//
// Concurrency: one goroutine — the replay engine's reader — observes, in
// index order, each record before the channel send that dispatches it;
// that send is the publication point. A worker reads its own request's
// verdict bit, plus the file slot's pre-download outcome when it
// pre-downloads, and neither is written again, so Probe and PreDownload
// on a request carrying ordinals take no lock. Callers that fill a
// Request without ordinals resolve the file by ID under mu (ObserveAt,
// Prime, PreDownload), which also builds a missing slot; mu guards only
// those callers: nothing an engine worker or a pool restore touches.
type Cloud struct {
	w    *World
	pool *cloud.StoragePool
	pop  *Population

	// mu serialises ordinal-less callers: ObserveAt and PreDownload on
	// requests without ordinals, and PoolStats's read of the pool.
	mu sync.Mutex
	// added holds the slots of files appended to the population after
	// seeding, by ordinal index less the seeded count: they are this
	// cloud's, since its population numbers them.
	added table[fileSlot]
	// observed is the observation pass's progress and latched verdicts.
	observed verdicts
	// seen is a bitset over file ordinal indices: the files an observed
	// request named. Static mode; only the observing goroutine touches it.
	seen []uint64

	ledger Ledger
	met    backendMetrics
}

// World is the part of a replay cloud that is a pure function of its
// seeded files, configuration and seed: the seeded population's numbering
// and bands, the static warm pool, and each seeded file's slot — its
// pre-download outcome and static warm bit — built the first time an
// observation reaches the file and kept for every later cloud. NewSet and
// RestoreSet build a cloud over it; a replay of each window of one trace
// under one spec can share one World, and builds only what it mutates.
//
// A World serves one replay at a time: the observing goroutine of the
// cloud replaying now builds its slots, which that replay's workers then
// read, exactly as within one cloud.
type World struct {
	files []*workload.FileMeta
	cfg   cloud.Config
	fm    cloud.FetchModel
	src   *sources.Mix
	root  *dist.RNG
	seed  *seeding
	// dynamic reports a policy-driven pool (dynamic mode).
	dynamic bool
	// warm is the static mode's warm pool, filled once and never changed
	// after; nil under a policy, where each cloud keeps a pool of its own.
	warm  *cloud.StoragePool
	slots table[fileSlot]
	// preLabel and preRNG are scratch state for attempt's per-file
	// substream derivation, owned by whichever goroutine builds slots.
	preLabel []byte
	preRNG   *dist.RNG
}

// fileSlot is one file's cloud state for the replay: its single
// pre-download attempt (out) and, in static mode, whether it is in the
// warm pool. The attempt's failure cause is kept as its code, not its
// name, so a table of slots holds no pointer: a World keeps its slots for
// as long as it lives, and the collector never scans them. Its fields are
// written once, when the slot is built (made).
type fileSlot struct {
	rate, traffic  float64
	delay          time.Duration
	ok, made, warm bool
	cause          sources.FailureCause
}

// out is the slot's pre-download outcome.
func (s *fileSlot) out() PreResult {
	if !s.ok {
		return PreResult{Delay: s.delay, Cause: s.cause.String()}
	}
	return PreResult{OK: true, Rate: s.rate, Delay: s.delay, Traffic: s.traffic}
}

// verdicts is the observation state every mode shares: how far the
// sequential observation pass has advanced and the per-request cache
// verdicts it latched along the way.
type verdicts struct {
	// bits is a bitset over request indices: bit i set means request i
	// found its file cached at observation time. Only the observing
	// goroutine sets bits; words are atomic because a worker reads request
	// j's bit while the observer sets a later bit in the same word.
	bits []atomic.Uint64
	// next is the lowest request index not yet observed.
	next int
}

// reserve sizes the bitset for indices [0, n), at least doubling it when
// it grows. Like table.reserve, it must not run while a worker reads
// verdicts.
func (v *verdicts) reserve(n int) {
	words := (n + 63) >> 6
	if words <= len(v.bits) {
		return
	}
	words = max(words, 2*len(v.bits))
	b := make([]atomic.Uint64, words)
	for w := range v.bits {
		b[w].Store(v.bits[w].Load())
	}
	v.bits = b
}

// set latches request i's hit. Single writer, so load-then-store cannot
// lose a bit.
func (v *verdicts) set(i int) {
	w := &v.bits[i>>6]
	w.Store(w.Load() | 1<<(uint(i)&63))
}

func (v *verdicts) get(i int) bool {
	w := i >> 6
	return w < len(v.bits) && v.bits[w].Load()&(1<<(uint(i)&63)) != 0
}

// NewWorld builds the world of clouds over the file population, which
// seeds their Population: in static mode it draws the warm set, each file
// cached with its band's WarmProbs probability, into the warm pool. It
// panics when cfg names an unknown cache policy (construction-time
// programming error, same contract as cloud.New).
func NewWorld(files []*workload.FileMeta, cfg cloud.Config, seed uint64) *World {
	if _, err := cloud.NewPolicy(cfg.CachePolicy); err != nil {
		panic(err)
	}
	w := &World{
		files:   files,
		cfg:     cfg,
		fm:      cloud.NewFetchModel(cfg),
		src:     sources.NewMix(),
		root:    dist.NewRNG(seed).Split("mini-cloud"),
		seed:    newSeeding(files),
		dynamic: cfg.CachePolicy != "",
		preRNG:  dist.NewRNG(0),
	}
	w.slots.reserve(len(w.seed.ids))
	if !w.dynamic {
		// The static pool keeps its embedded LRU (no extra alloc).
		w.warm = cloud.NewStoragePoolKeyed(cfg.PoolCapacity, len(files), nil)
		w.fillWarm(w.warm, &Population{seed: w.seed})
	}
	return w
}

// fillWarm draws the warm set into pool, keyed by pop's ordinals.
func (w *World) fillWarm(pool *cloud.StoragePool, pop *Population) {
	warm := w.root.Split("warm")
	for _, f := range w.files {
		if warm.Bool(WarmProbs[f.Band()]) {
			pool.AddKey(pop.File(f).idx(), f.Size, f.Band())
		}
	}
}

// NewCloud builds a warmed cloud backend over the file population, which
// also seeds its Population. It panics when cfg names an unknown cache
// policy (construction-time programming error, same contract as
// cloud.New).
func NewCloud(files []*workload.FileMeta, cfg cloud.Config, seed uint64) *Cloud {
	return NewWorld(files, cfg, seed).newCloud(true)
}

// newCloud builds a cloud over the world that has observed nothing. Under
// a policy its pool is its own, warmed when fill is set and left empty
// for a restore to fill otherwise; in static mode it reads the world's.
func (w *World) newCloud(fill bool) *Cloud {
	c := &Cloud{w: w, pool: w.warm, pop: &Population{seed: w.seed}}
	if w.dynamic {
		pol, _ := cloud.NewPolicy(w.cfg.CachePolicy)
		// The pool is keyed by the population's ordinals: a lookup indexes
		// a slice where it would hash an MD5.
		c.pool = cloud.NewStoragePoolKeyed(w.cfg.PoolCapacity, len(w.files), pol)
		if fill {
			w.fillWarm(c.pool, c.pop)
		}
	}
	return c
}

// reserve sizes the per-file slots and the verdict bitset for a replay of
// n records, before any worker starts.
func (c *Cloud) reserve(n int) {
	c.added.reserve(c.pop.reserve(n) - c.pop.seeded())
	c.observed.reserve(n)
}

// Name implements Backend.
func (c *Cloud) Name() string { return "cloud" }

// Ledger implements Backend.
func (c *Cloud) Ledger() *Ledger { return &c.ledger }

// Config returns the backend's cloud configuration.
func (c *Cloud) Config() cloud.Config { return c.w.cfg }

// PoolStats snapshots the storage pool's state and counters.
func (c *Cloud) PoolStats() cloud.PoolStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pool.Stats()
}

// PolicyLabel names the pool's placement regime for metrics: "static" for
// the default immutable warm pool, the policy name in dynamic mode.
func (c *Cloud) PolicyLabel() string {
	if !c.w.dynamic {
		return "static"
	}
	return c.pool.Policy()
}

// Prime observes a whole in-memory sample up front (ObserveAt over each
// request in order), for callers that probe the cloud outside the replay
// engine. Calling Prime again changes nothing: the cloud skips indices it
// has observed.
func (c *Cloud) Prime(sample []workload.Request) {
	for i := range sample {
		c.ObserveAt(i, sample[i].File, sample[i].Time)
	}
}

// ObserveAt is ObserveOrdinal for callers without ordinals: it resolves
// the file by ID, under the backend lock.
func (c *Cloud) ObserveAt(i int, f *workload.FileMeta, when time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o, s := c.slotByIDLocked(f)
	c.observe(i, o, s, f, when)
}

// ObserveOrdinal records request i for file f (ordinal o, from this
// cloud's Population) as it flows past and latches the request's verdict:
// on the file's first observation it builds the file's slot — warm bit,
// pre-download outcome — so the parallel replay phase only reads.
// Requests must be observed in ascending index order, each before it is
// dispatched, by one goroutine; the replay engine's reader does exactly
// that. Re-observing an already-observed index (a second Prime pass) is a
// no-op; skipping ahead is a sequencing bug and panics.
//
// In static mode the request finds the file cached when it is warm or an
// earlier request named it and its pre-download succeeded. In dynamic
// mode this is the single point where the pool evolves: the trace clock
// ticks (driving prefetch policies), the request's lookup refreshes or
// misses, and a successful pre-download outcome admits the file for later
// requests. In both modes the verdict is taken before the request's own
// pre-download counts, so a request never sees a file its own miss
// fetched.
func (c *Cloud) ObserveOrdinal(i int, o Ordinal, f *workload.FileMeta, when time.Duration) {
	c.observe(i, o, c.slot(o, f), f, when)
}

func (c *Cloud) observe(i int, o Ordinal, s *fileSlot, f *workload.FileMeta, when time.Duration) {
	if i < c.observed.next {
		return
	}
	if i != c.observed.next {
		panic("backend: out-of-order cloud observation")
	}
	c.observed.next = i + 1
	c.observed.reserve(i + 1)
	if !c.w.dynamic {
		k := int(o.idx())
		if s.warm || (c.saw(k) && s.ok) {
			c.observed.set(i)
		}
		c.see(k)
		return
	}
	c.pool.Tick(when)
	if c.pool.LookupKey(o.idx()) {
		c.observed.set(i)
		return
	}
	if s.ok {
		c.pool.AddKey(o.idx(), f.Size, f.Band())
	}
}

// saw reports whether an observed request named the file at ordinal index
// k; see marks it. Static mode.
func (c *Cloud) saw(k int) bool {
	return k>>6 < len(c.seen) && c.seen[k>>6]&(1<<(uint(k)&63)) != 0
}

func (c *Cloud) see(k int) {
	if w := k >> 6; w >= len(c.seen) {
		c.seen = append(c.seen, make([]uint64, w+1-len(c.seen))...)
	}
	c.seen[k>>6] |= 1 << (uint(k) & 63)
}

// slot returns file o's slot, built if it is new. The caller is the
// observing goroutine, or holds c.mu.
func (c *Cloud) slot(o Ordinal, f *workload.FileMeta) *fileSlot {
	s := c.slotAt(o)
	if !s.made {
		c.w.build(o, s, f)
	}
	return s
}

// slotAt returns file o's slot: the world's for a seeded file, the
// cloud's for one appended after seeding.
func (c *Cloud) slotAt(o Ordinal) *fileSlot {
	k, n := o.idx(), int32(c.pop.seeded())
	if k < n {
		return c.w.slots.at(k)
	}
	return c.added.at(k - n)
}

// slotByIDLocked is the resolve-by-ID step: f's ordinal and slot, the
// slot built if missing. The caller holds c.mu.
func (c *Cloud) slotByIDLocked(f *workload.FileMeta) (Ordinal, *fileSlot) {
	o := c.pop.fileByID(f)
	if n := int(o) - c.pop.seeded(); n > 0 {
		c.added.reserve(n)
	}
	return o, c.slot(o, f)
}

// build fills file o's new slot: the warm bit (static mode; the warm pool
// is immutable there) and the file's pre-download outcome, warm or not,
// so no later read of the slot needs to write it.
func (w *World) build(o Ordinal, s *fileSlot, f *workload.FileMeta) {
	s.warm = !w.dynamic && w.warm.ContainsKey(o.idx())
	w.attempt(s, f)
	s.made = true
}

// Probe implements Backend: the verdict latched when request req.Index
// was observed. An index never observed answers false.
func (c *Cloud) Probe(req *Request) bool {
	hit := c.observed.get(req.Index)
	c.met.probe(req.Tally.Slot(slotCloud), hit)
	return hit
}

// PreDownload implements Backend: the cloud pre-downloads the file from
// its original source through a pre-downloader VM. The outcome is one per
// file — concurrent requests for one file deduplicate onto a single
// attempt, exactly as the production cloud's in-flight deduplication
// does. A failed attempt runs for the configured stagnation timeout
// before the cloud declares failure.
func (c *Cloud) PreDownload(req *Request) PreResult {
	t := req.Tally.Slot(slotCloud)
	c.ledger.preDownload(t)
	var out PreResult
	if req.FileOrd == 0 {
		c.mu.Lock()
		_, s := c.slotByIDLocked(req.File)
		out = s.out()
		c.mu.Unlock()
	} else {
		out = c.slotAt(req.FileOrd).out()
	}
	if !out.OK {
		c.ledger.fail(t)
	}
	c.met.pre(t, &out)
	return out
}

// attempt runs the file's single pre-download attempt from its own RNG
// substream into s.
func (w *World) attempt(s *fileSlot, f *workload.FileMeta) {
	w.preLabel = append(w.preLabel[:0], "pre:"...)
	w.preLabel = f.ID.AppendHex(w.preLabel)
	w.root.SplitBytesInto(w.preRNG, w.preLabel)
	att := w.src.Attempt(w.preRNG, f)
	if !att.OK {
		s.delay, s.cause = w.cfg.StagnationTimeout, att.Cause
		return
	}
	s.ok, s.rate = true, math.Min(att.Rate, cloud.PreDownloaderBW)
	s.delay = time.Duration(float64(f.Size) / s.rate * float64(time.Second))
	s.traffic = float64(f.Size) * att.OverheadRatio
}

// Fetch implements Backend: one user fetch from the cloud, charging the
// upload ledger. The rate is the privileged-path draw for supported ISPs
// and the cross-ISP draw otherwise, capped by the replay environment.
func (c *Cloud) Fetch(req *Request) FetchResult {
	t := req.Tally.Slot(slotCloud)
	c.ledger.fetch(t)
	privRate, crossRate, _ := c.w.fm.Sample(req.RNG, req.User)
	rate := privRate
	if !req.User.ISP.Supported() {
		rate = crossRate
	}
	c.ledger.serve(t, req.File)
	res := FetchResult{
		OK:         true,
		Rate:       req.capped(rate),
		CloudBytes: req.File.Size,
	}
	c.met.fetch(t, &res, req.File)
	return res
}
