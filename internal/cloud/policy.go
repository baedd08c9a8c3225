package cloud

import (
	"fmt"
	"sort"
	"time"

	"odr/internal/workload"
)

// EvictionPolicy decides which cached file the storage pool sacrifices
// when it needs room. The pool owns the mechanism — slot table, dedup
// index, byte accounting, intrusive links — and calls the policy at the
// three points where placement knowledge lives: admission, touch, and
// eviction. Policies keep their ordering state in intrusive lists
// threaded through the pool's entry slots, so no policy allocates per
// file.
//
// Implementations live in this package and are selected by name through
// NewPolicy; the method set is unexported on purpose. A policy instance
// binds to exactly one pool.
type EvictionPolicy interface {
	// Name identifies the policy ("lru", "lfu", ...).
	Name() string
	// bind attaches the policy to its pool before any entry exists.
	bind(p *StoragePool)
	// onAdd records entry e entering the pool.
	onAdd(e int32)
	// onHit records a touch of resident entry e (lookup or re-add).
	onHit(e int32)
	// onRemove records entry e leaving the pool (eviction or resize
	// overflow). The entry's fields are still intact when called.
	onRemove(e int32)
	// victim returns the entry to evict next, or noEntry when the pool is
	// empty. The pool removes it; victim must not mutate state.
	victim() int32
	// appendState appends the policy's own state — list heads and
	// scalars; per-entry links live in the pool's entry table — and
	// restoreState reads it back (StoragePool.AppendState, RestoreState).
	appendState(dst []byte) []byte
	restoreState(r *stateReader)
	// entryLists returns every list the policy threads entries through, and
	// listFor the one resident entry e belongs on by its fields (nil when
	// they name none): what RestoreState checks a decoded table against.
	entryLists() []*entryList
	listFor(e int32) *entryList
}

// prefetcher is implemented by policies that proactively admit files on
// trace-clock ticks (the PrefetchPolicy half of the policy split). The
// pool caches the type assertion at construction so Tick stays a nil
// check for the three demand-only policies.
type prefetcher interface {
	tick(now time.Duration)
}

// PolicyNames lists the built-in cache policies, default first.
func PolicyNames() []string { return []string{"lru", "lfu", "band", "prewarm"} }

// NewPolicy returns a fresh eviction policy by name. The empty name
// selects the LRU default.
func NewPolicy(name string) (EvictionPolicy, error) {
	switch name {
	case "", "lru":
		return &lruPolicy{}, nil
	case "lfu":
		return &lfuPolicy{}, nil
	case "band":
		return &bandPolicy{}, nil
	case "prewarm":
		return &prewarmPolicy{}, nil
	}
	return nil, fmt.Errorf("cloud: unknown cache policy %q (have %v)", name, PolicyNames())
}

// lruPolicy is the classic least-recently-used order the pool hardwired
// before the mechanism/policy split: one recency list, evict the tail.
type lruPolicy struct {
	p    *StoragePool
	list entryList
}

func (l *lruPolicy) Name() string { return "lru" }

func (l *lruPolicy) bind(p *StoragePool) {
	if l.p != nil {
		panic("cloud: eviction policy already bound to a pool")
	}
	l.p = p
	l.list = entryList{head: noEntry, tail: noEntry}
}

func (l *lruPolicy) onAdd(e int32)    { l.p.listPushFront(&l.list, e) }
func (l *lruPolicy) onHit(e int32)    { l.p.listMoveToFront(&l.list, e) }
func (l *lruPolicy) onRemove(e int32) { l.p.listUnlink(&l.list, e) }
func (l *lruPolicy) victim() int32    { return l.list.tail }

// lfuMaxFreq caps an entry's frequency counter; entries at the cap keep
// recency order among themselves.
const lfuMaxFreq = 15

// lfuPolicy evicts the least-frequently-used file, with LRU order as the
// tie-break inside each frequency class. Frequencies decay by halving
// after a bounded number of touches, so a file that was hot last weekend
// cannot squat in the pool forever — the "frequency-decayed" LFU the
// cooperative-caching literature compares against plain recency.
type lfuPolicy struct {
	p *StoragePool
	// buckets[f] holds the entries with frequency f, most recent first.
	buckets [lfuMaxFreq + 1]entryList
	// touches counts policy events since the last decay.
	touches int
}

func (l *lfuPolicy) Name() string { return "lfu" }

func (l *lfuPolicy) bind(p *StoragePool) {
	if l.p != nil {
		panic("cloud: eviction policy already bound to a pool")
	}
	l.p = p
	for i := range l.buckets {
		l.buckets[i] = entryList{head: noEntry, tail: noEntry}
	}
}

func (l *lfuPolicy) onAdd(e int32) {
	l.p.listPushFront(&l.buckets[0], e)
	l.decayTick()
}

func (l *lfuPolicy) onHit(e int32) {
	ent := &l.p.entries[e]
	if int(ent.freq) < lfuMaxFreq {
		l.p.listUnlink(&l.buckets[ent.freq], e)
		ent.freq++
		l.p.listPushFront(&l.buckets[ent.freq], e)
	} else {
		l.p.listMoveToFront(&l.buckets[lfuMaxFreq], e)
	}
	l.decayTick()
}

func (l *lfuPolicy) onRemove(e int32) {
	l.p.listUnlink(&l.buckets[l.p.entries[e].freq], e)
}

func (l *lfuPolicy) victim() int32 {
	for f := range l.buckets {
		if l.buckets[f].tail != noEntry {
			return l.buckets[f].tail
		}
	}
	return noEntry
}

// decayTick halves every frequency once enough touches have accumulated
// (several times the resident population, so decay is amortized O(1) per
// touch and a pure function of the operation sequence — deterministic).
func (l *lfuPolicy) decayTick() {
	l.touches++
	if l.touches < 8*(l.p.Len()+8) {
		return
	}
	l.touches = 0
	for f := 1; f <= lfuMaxFreq; f++ {
		src := &l.buckets[f]
		for e := src.head; e != noEntry; e = l.p.entries[e].next {
			l.p.entries[e].freq = uint8(f / 2)
		}
		l.p.listSpliceBack(&l.buckets[f/2], src)
	}
}

// bandPolicy protects the paper's popularity skew directly: the 0.84 % of
// highly-popular files carrying 39 % of requests are evicted only after
// every popular file is gone, and popular files only after every
// unpopular one (LRU order inside each band). It is the placement the
// popularity-ranking cooperative-caching work argues for.
type bandPolicy struct {
	p *StoragePool
	// lists is indexed by workload.PopularityBand, most recent first.
	lists [3]entryList
}

func (b *bandPolicy) Name() string { return "band" }

func (b *bandPolicy) bind(p *StoragePool) {
	if b.p != nil {
		panic("cloud: eviction policy already bound to a pool")
	}
	b.p = p
	for i := range b.lists {
		b.lists[i] = entryList{head: noEntry, tail: noEntry}
	}
}

func (b *bandPolicy) onAdd(e int32) {
	b.p.listPushFront(&b.lists[b.p.entries[e].band], e)
}

func (b *bandPolicy) onHit(e int32) {
	b.p.listMoveToFront(&b.lists[b.p.entries[e].band], e)
}

func (b *bandPolicy) onRemove(e int32) {
	b.p.listUnlink(&b.lists[b.p.entries[e].band], e)
}

func (b *bandPolicy) victim() int32 {
	for band := workload.BandUnpopular; band <= workload.BandHighlyPopular; band++ {
		if b.lists[band].tail != noEntry {
			return b.lists[band].tail
		}
	}
	return noEntry
}

// ghostCap bounds the prewarm policy's memory of evicted files.
const ghostCap = 4096

// ghostEntry remembers an evicted file by its key: enough to re-admit it
// without the pool ever holding FileMeta pointers.
type ghostEntry struct {
	key  int32
	size int64
	band workload.PopularityBand
	hits uint8
}

// prewarmPolicy is LRU plus predictive pre-warming driven by the
// workload's diurnal curve: resident entries keep plain recency order,
// evicted files are remembered in a bounded ghost ring, and once per
// trace day — at the arrival trough the generator's hour profile places
// around 04:00–05:00, when pre-downloader bandwidth is idle — the policy
// re-admits the most promising ghosts (popularity band first, then
// observed hits) into whatever capacity is free. This is the §2.1
// pre-downloading fleet put to work overnight instead of sitting idle.
type prewarmPolicy struct {
	p    *StoragePool
	list entryList
	// ghosts is a ring of recently evicted files (oldest at gHead).
	ghosts []ghostEntry
	gHead  int
	gLen   int
	// troughStart is the offset of the diurnal trough within a day;
	// nextWake is the next trace instant a prefetch pass runs.
	troughStart time.Duration
	nextWake    time.Duration
	// scratch is reused across prefetch passes.
	scratch []ghostEntry
}

func (w *prewarmPolicy) Name() string { return "prewarm" }

func (w *prewarmPolicy) bind(p *StoragePool) {
	if w.p != nil {
		panic("cloud: eviction policy already bound to a pool")
	}
	w.p = p
	w.list = entryList{head: noEntry, tail: noEntry}
	profile := workload.DiurnalProfile()
	trough := 0
	for h, load := range profile {
		if load < profile[trough] {
			trough = h
		}
	}
	w.troughStart = time.Duration(trough) * time.Hour
	w.nextWake = w.troughStart
}

func (w *prewarmPolicy) onAdd(e int32) { w.p.listPushFront(&w.list, e) }

func (w *prewarmPolicy) onHit(e int32) {
	ent := &w.p.entries[e]
	if ent.freq < 255 {
		ent.freq++
	}
	w.p.listMoveToFront(&w.list, e)
}

func (w *prewarmPolicy) onRemove(e int32) {
	w.p.listUnlink(&w.list, e)
	ent := &w.p.entries[e]
	w.remember(ghostEntry{key: ent.key, size: ent.size, band: ent.band, hits: ent.freq})
}

func (w *prewarmPolicy) victim() int32 { return w.list.tail }

// remember pushes a ghost, dropping the oldest when the ring is full.
func (w *prewarmPolicy) remember(g ghostEntry) {
	if w.ghosts == nil {
		w.ghosts = make([]ghostEntry, ghostCap)
	}
	if w.gLen < ghostCap {
		w.ghosts[(w.gHead+w.gLen)%ghostCap] = g
		w.gLen++
		return
	}
	w.ghosts[w.gHead] = g
	w.gHead = (w.gHead + 1) % ghostCap
}

// tick implements prefetcher: the pool forwards every trace-clock advance
// and the policy fires one prefetch pass per trace day, at the diurnal
// trough.
func (w *prewarmPolicy) tick(now time.Duration) {
	if now < w.nextWake {
		return
	}
	w.prefetch()
	// Arm the next pass at the first trough instant strictly after now.
	day := (now - w.troughStart) / (24 * time.Hour)
	w.nextWake = w.troughStart + (day+1)*24*time.Hour
}

// prefetch re-admits the best-scored ghosts into free capacity. Admitted
// ghosts leave the ring; the rest keep their age order. Scoring and
// iteration are pure functions of the observation sequence, so replays
// stay deterministic.
func (w *prewarmPolicy) prefetch() {
	if w.gLen == 0 {
		return
	}
	w.scratch = w.scratch[:0]
	for i := 0; i < w.gLen; i++ {
		w.scratch = append(w.scratch, w.ghosts[(w.gHead+i)%ghostCap])
	}
	// Highest band first, then most observed hits; stable keeps age order
	// as the final tie-break.
	sort.SliceStable(w.scratch, func(i, j int) bool {
		if w.scratch[i].band != w.scratch[j].band {
			return w.scratch[i].band > w.scratch[j].band
		}
		return w.scratch[i].hits > w.scratch[j].hits
	})
	w.gHead, w.gLen = 0, 0
	for _, g := range w.scratch {
		if w.p.prefetchAdd(g.key, g.size, g.band) {
			continue
		}
		if !w.p.ContainsKey(g.key) {
			w.remember(g) // did not fit; keep remembering it
		}
	}
}
