// Package cloud simulates the Xuanfeng cloud-based offline-downloading
// system of §2.1: an MD5-deduplicated storage pool with a pluggable
// eviction policy, a fleet of pre-downloader VMs with ≈20 Mbps access
// each and a one-hour stagnation timeout, and per-ISP uploading-server
// pools that build privileged network paths and reject new fetches when
// upload bandwidth runs out.
package cloud

import (
	"time"

	"odr/internal/workload"
)

// StoragePool is the deduplicating file cache. Every file is keyed by
// the MD5 of its content (workload.FileID), so identical content occupies
// one slot regardless of how many users request it — the paper's
// "collaborative caching". The zero value is not usable; use NewStoragePool.
//
// The pool is pure mechanism: slot table, dedup index, byte accounting,
// and intrusive links. Which file leaves under capacity pressure is the
// attached EvictionPolicy's call (LRU by default; see NewPolicy), and the
// policy keeps its ordering state inside the same entry slots.
//
// Entries live in one flat slice linked into policy order by index, not
// in a container/list of heap nodes: warming a replay cloud over a
// hundred-thousand-file population is two allocations of bookkeeping
// instead of two allocations per file, which is what kept the replay
// benchmarks' allocs/op proportional to the file population. The default
// LRU policy is embedded in the pool itself, so the split costs no
// allocation either.
//
// The dedup index is dense: each file has an int32 key, and slots[key] is
// the entry slot holding it. Who numbers the files decides which methods a
// pool takes. A pool built by NewStoragePoolKeyed is numbered by its owner
// — a replay cloud passes its Population ordinals — and takes keys
// (LookupKey, AddKey, ContainsKey), so a lookup hashes nothing; the key is
// its only name for a file, in entries, ghosts and checkpoint state. Any
// other pool numbers files itself, in the order it first admits them, and
// takes FileIDs (Lookup, AddBanded, AddMeta, Contains): one map probe
// turns the ID into its key. It has no checkpoint state.
type StoragePool struct {
	capacity int64
	used     int64
	entries  []poolEntry
	// slots is the dedup index by file key: the entry slot caching the
	// file, noEntry when it is not cached. It grows with the keys seen.
	slots []int32
	// files counts the cached files.
	files int
	// keys is the pool's own FileID numbering (nil for an owner-keyed
	// pool): a file keeps its key after eviction.
	keys map[workload.FileID]int32
	free int32 // head of the free-slot list threaded through next
	// policy is the attached eviction policy.
	policy EvictionPolicy
	// prefetch caches the policy's prefetcher assertion so Tick is a nil
	// check for demand-only policies.
	prefetch prefetcher
	// lru is the inline storage for the default policy (no extra alloc).
	lru lruPolicy
	// counters
	hits, misses, evictions  uint64
	hitBytes                 uint64
	prefetches, prefetchedBy uint64
}

// poolEntry is one cached file plus its intrusive policy links (indices
// into the entries slice, -1 = none). A vacated slot is threaded onto the
// free list through next and reused by the next Add. key is the file's
// index in slots. band and freq are policy scratch: the file's popularity
// band and a small touch counter.
type poolEntry struct {
	size       int64
	key        int32
	prev, next int32
	band       workload.PopularityBand
	freq       uint8
}

const noEntry = int32(-1)

// entryList is one intrusive list head threaded through the pool's entry
// slots. Policies own one or more lists (recency, frequency buckets,
// per-band segments); the pool provides the link surgery.
type entryList struct {
	head, tail int32
}

// NewStoragePool returns an empty LRU pool holding at most capacity
// bytes. Capacity must be positive.
func NewStoragePool(capacity int64) *StoragePool {
	return NewStoragePoolSized(capacity, 0)
}

// NewStoragePoolSized is NewStoragePool with a hint for how many files the
// pool is expected to hold; the index and entry table are pre-sized so
// bulk warming performs no incremental growth. The hint does not bound the
// pool — it may hold more entries if capacity allows.
func NewStoragePoolSized(capacity int64, hint int) *StoragePool {
	return NewStoragePoolPolicy(capacity, hint, nil)
}

// NewStoragePoolPolicy builds a pool with an explicit eviction policy
// (nil selects the embedded LRU default). The policy must be fresh — a
// policy instance binds to exactly one pool. The pool numbers its files
// itself and takes FileIDs.
func NewStoragePoolPolicy(capacity int64, hint int, pol EvictionPolicy) *StoragePool {
	p := NewStoragePoolKeyed(capacity, hint, pol)
	p.keys = make(map[workload.FileID]int32, hint)
	return p
}

// NewStoragePoolKeyed is NewStoragePoolPolicy for an owner that numbers
// the files: it names each file by a non-negative int32 key of its own,
// dense enough that a slice indexed by key is small (a population
// ordinal), and calls LookupKey, AddKey and ContainsKey. Calling a FileID
// method on the pool panics.
func NewStoragePoolKeyed(capacity int64, hint int, pol EvictionPolicy) *StoragePool {
	if capacity <= 0 {
		panic("cloud: pool capacity must be positive")
	}
	hint = max(hint, 0)
	p := &StoragePool{
		capacity: capacity,
		entries:  make([]poolEntry, 0, hint),
		slots:    make([]int32, 0, hint),
		free:     noEntry,
	}
	if pol == nil {
		pol = &p.lru
	}
	p.policy = pol
	pol.bind(p)
	p.prefetch, _ = pol.(prefetcher)
	return p
}

// ownKey returns id's key in the pool's own numbering; with add, a file
// the pool has not numbered yet gets the next key, and otherwise ok
// reports whether it has one.
func (p *StoragePool) ownKey(id workload.FileID, add bool) (k int32, ok bool) {
	if p.keys == nil {
		panic("cloud: this pool's owner numbers its files; name them by key, not FileID")
	}
	if k, ok = p.keys[id]; !ok && add {
		k, ok = int32(len(p.keys)), true
		p.keys[id] = k
	}
	return k, ok
}

// slot returns the entry slot caching the file with key k, or noEntry.
func (p *StoragePool) slot(k int32) int32 {
	if uint(k) < uint(len(p.slots)) {
		return p.slots[k]
	}
	return noEntry
}

// setSlot points key k's index entry at slot e, growing the index to
// reach k.
func (p *StoragePool) setSlot(k, e int32) {
	if k < 0 {
		panic("cloud: negative file key")
	}
	for int(k) >= len(p.slots) {
		p.slots = append(p.slots, noEntry)
	}
	p.slots[k] = e
}

// Capacity returns the pool's byte capacity.
func (p *StoragePool) Capacity() int64 { return p.capacity }

// Used returns the bytes currently stored.
func (p *StoragePool) Used() int64 { return p.used }

// Len returns the number of cached files.
func (p *StoragePool) Len() int { return p.files }

// Hits returns how many Lookup calls found their file.
func (p *StoragePool) Hits() uint64 { return p.hits }

// Misses returns how many Lookup calls missed.
func (p *StoragePool) Misses() uint64 { return p.misses }

// Evictions returns how many files the policy's eviction has removed.
func (p *StoragePool) Evictions() uint64 { return p.evictions }

// Policy returns the attached eviction policy's name.
func (p *StoragePool) Policy() string { return p.policy.Name() }

// PoolStats is a point-in-time snapshot of a pool's state and counters,
// the unit the obs layer and the EXP-C tournament report.
type PoolStats struct {
	Policy    string
	Capacity  int64
	Used      int64
	Files     int
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// HitBytes is the bytes served from cache: the sum of entry sizes over
	// Lookup hits.
	HitBytes uint64
	// Prefetches and PrefetchBytes count proactive admissions by a
	// prefetch-capable policy.
	Prefetches    uint64
	PrefetchBytes uint64
}

// HitRatio returns hits over lookups (0 when nothing was looked up).
func (s PoolStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats snapshots the pool.
func (p *StoragePool) Stats() PoolStats {
	return PoolStats{
		Policy:        p.policy.Name(),
		Capacity:      p.capacity,
		Used:          p.used,
		Files:         p.files,
		Hits:          p.hits,
		Misses:        p.misses,
		Evictions:     p.evictions,
		HitBytes:      p.hitBytes,
		Prefetches:    p.prefetches,
		PrefetchBytes: p.prefetchedBy,
	}
}

// Contains reports whether the file is cached without touching policy
// order or counters (used by ODR's read-only cache probe). It writes
// nothing, so concurrent Contains calls are safe while nothing else runs.
func (p *StoragePool) Contains(id workload.FileID) bool {
	k, ok := p.ownKey(id, false)
	return ok && p.ContainsKey(k)
}

// ContainsKey is Contains for the file with key k.
func (p *StoragePool) ContainsKey(k int32) bool { return p.slot(k) != noEntry }

// Lookup reports whether the file is cached, counting a hit or miss and
// refreshing the policy's placement on hit.
func (p *StoragePool) Lookup(id workload.FileID) bool {
	k, ok := p.ownKey(id, false)
	if !ok {
		p.misses++
		return false
	}
	return p.LookupKey(k)
}

// LookupKey is Lookup for the file with key k.
func (p *StoragePool) LookupKey(k int32) bool {
	e := p.slot(k)
	if e == noEntry {
		p.misses++
		return false
	}
	p.hits++
	p.hitBytes += uint64(p.entries[e].size)
	p.policy.onHit(e)
	return true
}

// Tick advances the pool's trace clock. Prefetch-capable policies use it
// to trigger proactive admissions (e.g. during the diurnal trough);
// demand-only policies make it a no-op.
func (p *StoragePool) Tick(now time.Duration) {
	if p.prefetch != nil {
		p.prefetch.tick(now)
	}
}

// Add caches a file with no popularity information (band unpopular — the
// conservative default for policies that read it). See AddBanded.
func (p *StoragePool) Add(id workload.FileID, size int64) bool {
	return p.AddBanded(id, size, workload.BandUnpopular)
}

// AddMeta caches a file carrying its popularity band from the metadata.
func (p *StoragePool) AddMeta(f *workload.FileMeta) bool {
	return p.AddBanded(f.ID, f.Size, f.Band())
}

// AddBanded caches a file, evicting policy-chosen entries as needed, and
// reports whether the file is resident afterwards. Re-adding an
// already-cached file refreshes its placement; if the size differs from
// the cached one, the entry is resized and the byte accounting corrected
// (silently keeping the stale size used to corrupt the used counter), and
// the shrink-to-fit eviction may — under a policy that so chooses — expel
// the resized entry itself, in which case AddBanded reports false. Files
// larger than the pool capacity are never cached.
func (p *StoragePool) AddBanded(id workload.FileID, size int64, band workload.PopularityBand) bool {
	k, _ := p.ownKey(id, true)
	return p.AddKey(k, size, band)
}

// AddKey is AddBanded for the file with key k.
func (p *StoragePool) AddKey(k int32, size int64, band workload.PopularityBand) bool {
	if size < 0 {
		panic("cloud: negative file size")
	}
	if e := p.slot(k); e != noEntry {
		return p.refresh(e, k, size, band)
	}
	if size > p.capacity {
		return false
	}
	for p.used+size > p.capacity {
		if !p.evictOne() {
			return false
		}
	}
	p.admit(k, size, band)
	return true
}

// admit places a file the pool does not hold into a fresh slot.
func (p *StoragePool) admit(k int32, size int64, band workload.PopularityBand) {
	e := p.alloc()
	ent := &p.entries[e]
	ent.key = k
	ent.size = size
	ent.band = band
	ent.freq = 0
	p.setSlot(k, e)
	p.files++
	p.used += size
	p.policy.onAdd(e)
}

// refresh re-touches a resident entry, applying a size correction when
// the caller's size disagrees with the cached one. A new band moves the
// entry off the list its old band named before the touch, so the touch
// places it on the new band's list as a hit would.
func (p *StoragePool) refresh(e, k int32, size int64, band workload.PopularityBand) bool {
	ent := &p.entries[e]
	if ent.band != band {
		old := p.policy.listFor(e)
		ent.band = band
		if now := p.policy.listFor(e); now != old {
			p.listUnlink(old, e)
			p.listPushFront(now, e)
		}
	}
	if ent.size != size {
		p.used += size - ent.size
		ent.size = size
	}
	p.policy.onHit(e)
	for p.used > p.capacity {
		if !p.evictOne() {
			break
		}
	}
	return p.ContainsKey(k)
}

// prefetchAdd admits a file during a policy's prefetch pass: like
// AddKey but counted separately and never evicting to make room — a
// prediction only fills capacity that demand left free.
func (p *StoragePool) prefetchAdd(k int32, size int64, band workload.PopularityBand) bool {
	if size <= 0 || p.used+size > p.capacity || p.ContainsKey(k) {
		return false
	}
	p.admit(k, size, band)
	p.prefetches++
	p.prefetchedBy += uint64(size)
	return true
}

// evictOne removes the policy's victim; false when the pool is empty.
func (p *StoragePool) evictOne() bool {
	e := p.policy.victim()
	if e == noEntry {
		return false
	}
	p.policy.onRemove(e)
	ent := &p.entries[e]
	p.slots[ent.key] = noEntry
	p.files--
	p.used -= ent.size
	p.evictions++
	// Recycle the slot.
	ent.next = p.free
	p.free = e
	return true
}

// alloc returns a slot for a new entry: a recycled one from the free list
// when available, a fresh one appended to the table otherwise.
func (p *StoragePool) alloc() int32 {
	if p.free != noEntry {
		e := p.free
		p.free = p.entries[e].next
		return e
	}
	p.entries = append(p.entries, poolEntry{})
	return int32(len(p.entries) - 1)
}

// listUnlink detaches entry e from list l.
func (p *StoragePool) listUnlink(l *entryList, e int32) {
	ent := &p.entries[e]
	if ent.prev != noEntry {
		p.entries[ent.prev].next = ent.next
	} else {
		l.head = ent.next
	}
	if ent.next != noEntry {
		p.entries[ent.next].prev = ent.prev
	} else {
		l.tail = ent.prev
	}
}

// listPushFront links entry e in as l's most recent.
func (p *StoragePool) listPushFront(l *entryList, e int32) {
	ent := &p.entries[e]
	ent.prev = noEntry
	ent.next = l.head
	if l.head != noEntry {
		p.entries[l.head].prev = e
	}
	l.head = e
	if l.tail == noEntry {
		l.tail = e
	}
}

// listMoveToFront re-links resident entry e as l's most recent.
func (p *StoragePool) listMoveToFront(l *entryList, e int32) {
	if l.head == e {
		return
	}
	p.listUnlink(l, e)
	p.listPushFront(l, e)
}

// listSpliceBack appends the whole of src to dst's tail and empties src.
func (p *StoragePool) listSpliceBack(dst, src *entryList) {
	if src.head == noEntry {
		return
	}
	if dst.tail == noEntry {
		*dst = *src
	} else {
		p.entries[dst.tail].next = src.head
		p.entries[src.head].prev = dst.tail
		dst.tail = src.tail
	}
	*src = entryList{head: noEntry, tail: noEntry}
}
