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
// Concurrency: one goroutine — the replay engine's reader — observes, in
// index order, each record before the channel send that dispatches it;
// that send is the publication point. A worker reads its own request's
// verdict bit, plus the file slot's pre-download outcome when it
// pre-downloads, and neither is written again, so Probe and PreDownload
// on a request carrying ordinals take no lock. Callers that fill a
// Request without ordinals resolve the file by ID under mu (ObserveAt,
// Prime, PreDownload), which also builds a missing slot; mu guards
// nothing an engine worker touches.
type Cloud struct {
	cfg  cloud.Config
	fm   cloud.FetchModel
	src  *sources.Mix
	pool *cloud.StoragePool
	root *dist.RNG
	pop  *Population

	// mu serialises ordinal-less callers: ObserveAt and PreDownload on
	// requests without ordinals, and PoolStats's read of the pool.
	mu    sync.Mutex
	slots table[fileSlot]
	// dynamic reports a policy-driven pool (dynamic mode).
	dynamic bool
	// observed is the observation pass's progress and latched verdicts.
	observed verdicts
	// preLabel and preRNG are scratch state for attempt's per-file
	// substream derivation, owned by whichever goroutine writes slots.
	preLabel []byte
	preRNG   *dist.RNG

	ledger Ledger
	met    backendMetrics
}

// fileSlot is one file's cloud state for the replay. made and the fields
// it covers are written once, when the slot is built; seen at the file's
// first observation.
type fileSlot struct {
	// out is the file's single pre-download attempt.
	out  PreResult
	made bool
	// seen reports an observed request for the file. Static mode.
	seen bool
	// warm reports the file in the warm pool. Static mode.
	warm bool
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

// NewCloud builds a warmed cloud backend over the file population, which
// also seeds its Population. It panics when cfg names an unknown cache
// policy (construction-time programming error, same contract as
// cloud.New).
func NewCloud(files []*workload.FileMeta, cfg cloud.Config, seed uint64) *Cloud {
	c := newCloud(files, cfg, seed)
	c.fillWarm(files)
	return c
}

// newCloud is NewCloud with an empty pool.
func newCloud(files []*workload.FileMeta, cfg cloud.Config, seed uint64) *Cloud {
	pol, err := cloud.NewPolicy(cfg.CachePolicy)
	if err != nil {
		panic(err)
	}
	if cfg.CachePolicy == "" {
		pol = nil // static mode keeps the pool's embedded LRU (no extra alloc)
	}
	pop := NewPopulation(files)
	return &Cloud{
		cfg: cfg,
		fm:  cloud.NewFetchModel(cfg),
		src: sources.NewMix(),
		// The pool is keyed by the population's ordinals: a lookup indexes
		// a slice where it would hash an MD5.
		pool:   cloud.NewStoragePoolKeyed(cfg.PoolCapacity, len(files), pol, pop.fileKey),
		root:   dist.NewRNG(seed).Split("mini-cloud"),
		pop:    pop,
		preRNG: dist.NewRNG(0),

		dynamic: cfg.CachePolicy != "",
	}
}

// fillWarm draws the warm set, each file cached with its band's WarmProbs
// probability, and fills the pool with it.
func (c *Cloud) fillWarm(files []*workload.FileMeta) {
	warm := c.root.Split("warm")
	for _, f := range files {
		if warm.Bool(WarmProbs[f.Band()]) {
			c.pool.AddKey(c.pop.File(f).idx(), f.ID, f.Size, f.Band())
		}
	}
}

// reserve sizes the per-file slots and the verdict bitset for a replay of
// n records, before any worker starts.
func (c *Cloud) reserve(n int) {
	c.slots.reserve(c.pop.reserve(n))
	c.observed.reserve(n)
}

// Name implements Backend.
func (c *Cloud) Name() string { return "cloud" }

// Ledger implements Backend.
func (c *Cloud) Ledger() *Ledger { return &c.ledger }

// Config returns the backend's cloud configuration.
func (c *Cloud) Config() cloud.Config { return c.cfg }

// PoolStats snapshots the storage pool's state and counters.
func (c *Cloud) PoolStats() cloud.PoolStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pool.Stats()
}

// PolicyLabel names the pool's placement regime for metrics: "static" for
// the default immutable warm pool, the policy name in dynamic mode.
func (c *Cloud) PolicyLabel() string {
	if !c.dynamic {
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
	s := c.slots.at(o.idx())
	if !s.made {
		c.build(o, s, f)
	}
	c.observe(i, o, s, f, when)
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
	if !c.dynamic {
		if s.warm || (s.seen && s.out.OK) {
			c.observed.set(i)
		}
		if !s.seen {
			s.seen = true // once: workers read this slot's outcome
		}
		return
	}
	c.pool.Tick(when)
	if c.pool.LookupKey(o.idx()) {
		c.observed.set(i)
		return
	}
	if s.out.OK {
		c.pool.AddKey(o.idx(), f.ID, f.Size, f.Band())
	}
}

// slotByIDLocked is the resolve-by-ID step: f's ordinal and slot, the
// slot built if missing. The caller holds c.mu.
func (c *Cloud) slotByIDLocked(f *workload.FileMeta) (Ordinal, *fileSlot) {
	o := c.pop.fileByID(f)
	c.slots.reserve(int(o))
	s := c.slots.at(o.idx())
	if !s.made {
		c.build(o, s, f)
	}
	return o, s
}

// build fills file o's new slot: the warm bit (static mode; the warm pool
// is immutable there) and the file's pre-download outcome, warm or not,
// so no later read of the slot needs to write it.
func (c *Cloud) build(o Ordinal, s *fileSlot, f *workload.FileMeta) {
	s.warm = !c.dynamic && c.pool.ContainsKey(o.idx())
	s.out = c.attempt(f)
	s.made = true
}

// Probe implements Backend: the verdict latched when request req.Index
// was observed. An index never observed answers false.
func (c *Cloud) Probe(req *Request) bool {
	hit := c.observed.get(req.Index)
	c.met.probe(hit)
	return hit
}

// PreDownload implements Backend: the cloud pre-downloads the file from
// its original source through a pre-downloader VM. The outcome is one per
// file — concurrent requests for one file deduplicate onto a single
// attempt, exactly as the production cloud's in-flight deduplication
// does. A failed attempt runs for the configured stagnation timeout
// before the cloud declares failure.
func (c *Cloud) PreDownload(req *Request) PreResult {
	c.ledger.preDownloads.Add(1)
	var out PreResult
	if req.FileOrd == 0 {
		c.mu.Lock()
		_, s := c.slotByIDLocked(req.File)
		out = s.out
		c.mu.Unlock()
	} else {
		out = c.slots.at(req.FileOrd.idx()).out
	}
	if !out.OK {
		c.ledger.failures.Add(1)
	}
	c.met.pre(&out)
	return out
}

// attempt runs the file's single pre-download attempt from its own RNG
// substream.
func (c *Cloud) attempt(f *workload.FileMeta) PreResult {
	c.preLabel = append(c.preLabel[:0], "pre:"...)
	c.preLabel = f.ID.AppendHex(c.preLabel)
	c.root.SplitBytesInto(c.preRNG, c.preLabel)
	att := c.src.Attempt(c.preRNG, f)
	if !att.OK {
		return PreResult{Delay: c.cfg.StagnationTimeout, Cause: att.Cause.String()}
	}
	rate := math.Min(att.Rate, cloud.PreDownloaderBW)
	return PreResult{
		OK:      true,
		Rate:    rate,
		Delay:   time.Duration(float64(f.Size) / rate * float64(time.Second)),
		Traffic: float64(f.Size) * att.OverheadRatio,
	}
}

// Fetch implements Backend: one user fetch from the cloud, charging the
// upload ledger. The rate is the privileged-path draw for supported ISPs
// and the cross-ISP draw otherwise, capped by the replay environment.
func (c *Cloud) Fetch(req *Request) FetchResult {
	c.ledger.fetches.Add(1)
	privRate, crossRate, _ := c.fm.Sample(req.RNG, req.User)
	rate := privRate
	if !req.User.ISP.Supported() {
		rate = crossRate
	}
	c.ledger.serve(req.File)
	res := FetchResult{
		OK:         true,
		Rate:       req.capped(rate),
		CloudBytes: req.File.Size,
	}
	c.met.fetch(&res, req.File)
	return res
}
