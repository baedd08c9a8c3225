package backend

import (
	"math"
	"sync"
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
// Concurrency and determinism: in the default static mode the warm pool
// is immutable after construction, and each cache miss's pre-download
// outcome is a memoized pure function of (seed, file) drawn from a
// file-keyed RNG substream — never from a shared sequential stream.
// Whether a request sees the file cached therefore depends only on the
// warm set, that per-file outcome, and the index order recorded by
// ObserveAt, not on which goroutine got there first.
//
// Naming a cache policy (cloud.Config.CachePolicy) switches the backend
// to dynamic mode: the pool evolves under the policy — lookups refresh
// placement, successful pre-downloads admit files, capacity pressure
// evicts. The pool then mutates only in ObserveAt, which the replay
// engine's reader goroutine calls in strictly ascending index order before
// the matching request is dispatched. Each request's cached-or-not verdict
// is latched in a bitset
// at observation time, so the parallel dispatch phase only reads verdict
// bits — worker scheduling still cannot influence what any request sees.
type Cloud struct {
	cfg  cloud.Config
	fm   cloud.FetchModel
	src  *sources.Mix
	pool *cloud.StoragePool
	root *dist.RNG

	mu sync.Mutex
	// outcomes memoizes the single pre-download attempt per file.
	outcomes map[workload.FileID]PreResult
	// firstIdx records each sampled file's earliest request index; a
	// request sees a pre-downloaded (not warm) file as cached only when a
	// strictly earlier request could have triggered the pre-download.
	// Static mode only.
	firstIdx map[workload.FileID]int
	// dyn holds the policy-driven pool state; nil in static mode.
	dyn *dynCache
	// preLabel and preRNG are scratch state for outcomeLocked's per-file
	// substream derivation, guarded by mu like the maps above.
	preLabel []byte
	preRNG   *dist.RNG

	ledger Ledger
	met    backendMetrics
}

// dynCache is the dynamic-mode observation state: how far the sequential
// observation pass has advanced and the per-request cache verdicts it
// latched along the way.
type dynCache struct {
	// verdicts is a bitset over request indices: bit i set means request i
	// found its file cached at observation time.
	verdicts []uint64
	// next is the lowest request index not yet observed.
	next int
}

func (d *dynCache) set(i int) {
	w := i >> 6
	for len(d.verdicts) <= w {
		d.verdicts = append(d.verdicts, 0)
	}
	d.verdicts[w] |= 1 << (uint(i) & 63)
}

func (d *dynCache) get(i int) bool {
	w := i >> 6
	return w < len(d.verdicts) && d.verdicts[w]&(1<<(uint(i)&63)) != 0
}

// NewCloud builds a warmed cloud backend over the file population. It
// panics when cfg names an unknown cache policy (construction-time
// programming error, same contract as cloud.New).
func NewCloud(files []*workload.FileMeta, cfg cloud.Config, seed uint64) *Cloud {
	pol, err := cloud.NewPolicy(cfg.CachePolicy)
	if err != nil {
		panic(err)
	}
	if cfg.CachePolicy == "" {
		pol = nil // static mode keeps the pool's embedded LRU (no extra alloc)
	}
	g := dist.NewRNG(seed).Split("mini-cloud")
	c := &Cloud{
		cfg:      cfg,
		fm:       cloud.NewFetchModel(cfg),
		src:      sources.NewMix(),
		pool:     cloud.NewStoragePoolPolicy(cfg.PoolCapacity, len(files), pol),
		root:     g,
		outcomes: make(map[workload.FileID]PreResult),
		firstIdx: make(map[workload.FileID]int),
		preRNG:   dist.NewRNG(0),
	}
	if cfg.CachePolicy != "" {
		c.dyn = &dynCache{}
	}
	warm := g.Split("warm")
	for _, f := range files {
		if warm.Bool(WarmProbs[f.Band()]) {
			c.pool.AddMeta(f)
		}
	}
	return c
}

// Name implements Backend.
func (c *Cloud) Name() string { return "cloud" }

// Ledger implements Backend.
func (c *Cloud) Ledger() *Ledger { return &c.ledger }

// Config returns the backend's cloud configuration.
func (c *Cloud) Config() cloud.Config { return c.cfg }

// Contains implements core.CacheProbe over the pool (the state ODR's
// advisor would see). In dynamic mode the pool evolves, so the read takes
// the backend lock.
func (c *Cloud) Contains(id workload.FileID) bool {
	if c.dyn == nil {
		return c.pool.Contains(id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pool.Contains(id)
}

// PoolStats snapshots the storage pool's state and counters.
func (c *Cloud) PoolStats() cloud.PoolStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pool.Stats()
}

// PolicyLabel names the pool's placement regime for metrics: "static" for
// the default immutable warm pool, the policy name in dynamic mode.
func (c *Cloud) PolicyLabel() string {
	if c.dyn == nil {
		return "static"
	}
	return c.pool.Policy()
}

// Prime observes a whole in-memory sample up front (ObserveAt over each
// request in order), for callers that probe the cloud outside the replay
// engine. Calling Prime again extends the index map without disturbing
// already-recorded entries.
func (c *Cloud) Prime(sample []workload.Request) {
	for i := range sample {
		c.ObserveAt(i, sample[i].File, sample[i].Time)
	}
}

// ObserveAt records one request as it flows past: the file's earliest
// request index, and the pre-download outcome of a non-warm file, so the
// parallel replay phase only reads. Requests must be observed in ascending
// index order before any request with a larger index is dispatched; the
// replay engine's reader goroutine does exactly that. Because the per-file
// outcome is a memoized pure function of (seed, file) and firstIdx keeps
// only the smallest index per file, how far observation has run ahead of
// dispatch is unobservable.
//
// In dynamic mode this is the single point where the pool evolves: the
// trace clock ticks (driving prefetch policies), the request's lookup
// refreshes or misses, and a successful pre-download outcome admits the
// file for later requests. The request's own verdict is latched before
// any admission, so a request never sees a file its own miss fetched.
func (c *Cloud) ObserveAt(i int, f *workload.FileMeta, when time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dyn != nil {
		c.observeDynamicLocked(i, f, when)
		return
	}
	if _, ok := c.firstIdx[f.ID]; !ok {
		c.firstIdx[f.ID] = i
	}
	if !c.pool.Contains(f.ID) {
		c.outcomeLocked(f)
	}
}

// observeDynamicLocked advances the policy-driven pool by one request.
// Re-observing an already-observed index (a second Prime pass) is a
// no-op; skipping ahead is an engine-sequencing bug and panics.
func (c *Cloud) observeDynamicLocked(i int, f *workload.FileMeta, when time.Duration) {
	if i < c.dyn.next {
		return
	}
	if i != c.dyn.next {
		panic("backend: out-of-order observation in dynamic cache mode")
	}
	c.dyn.next = i + 1
	c.pool.Tick(when)
	if c.pool.Lookup(f.ID) {
		c.dyn.set(i)
		return
	}
	if c.outcomeLocked(f).OK {
		c.pool.AddMeta(f)
	}
}

// Probe implements Backend: the file is available to this request when it
// is warm, or when a strictly earlier request's cloud pre-download
// succeeded. In dynamic mode the answer was latched at observation time.
func (c *Cloud) Probe(req *Request) bool {
	hit := c.probe(req)
	c.met.probe(hit)
	return hit
}

func (c *Cloud) probe(req *Request) bool {
	if c.dyn != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.dyn.get(req.Index)
	}
	if c.pool.Contains(req.File.ID) {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	first, ok := c.firstIdx[req.File.ID]
	if !ok || first >= req.Index {
		return false
	}
	return c.outcomeLocked(req.File).OK
}

// PreDownload implements Backend: the cloud pre-downloads the file from
// its original source through a pre-downloader VM. The outcome is
// memoized per file — concurrent requests for one file deduplicate onto a
// single attempt, exactly as the production cloud's in-flight
// deduplication does. A failed attempt runs for the configured stagnation
// timeout before the cloud declares failure.
func (c *Cloud) PreDownload(req *Request) PreResult {
	c.ledger.preDownloads.Add(1)
	c.mu.Lock()
	out := c.outcomeLocked(req.File)
	c.mu.Unlock()
	if !out.OK {
		c.ledger.failures.Add(1)
	}
	c.met.pre(&out)
	return out
}

// outcomeLocked resolves (and memoizes) the file's single pre-download
// attempt. The caller holds c.mu.
func (c *Cloud) outcomeLocked(f *workload.FileMeta) PreResult {
	if out, ok := c.outcomes[f.ID]; ok {
		return out
	}
	c.preLabel = append(c.preLabel[:0], "pre:"...)
	c.preLabel = f.ID.AppendHex(c.preLabel)
	c.root.SplitBytesInto(c.preRNG, c.preLabel)
	att := c.src.Attempt(c.preRNG, f)
	var out PreResult
	if !att.OK {
		out = PreResult{Delay: c.cfg.StagnationTimeout, Cause: att.Cause.String()}
	} else {
		rate := math.Min(att.Rate, cloud.PreDownloaderBW)
		out = PreResult{
			OK:      true,
			Rate:    rate,
			Delay:   time.Duration(float64(f.Size) / rate * float64(time.Second)),
			Traffic: float64(f.Size) * att.OverheadRatio,
		}
	}
	c.outcomes[f.ID] = out
	return out
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
