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
type StoragePool struct {
	capacity int64
	used     int64
	entries  []poolEntry
	index    map[workload.FileID]int32
	free     int32 // head of the free-slot list threaded through next
	policy   EvictionPolicy
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
// free list through next and reused by the next Add. band and freq are
// policy scratch: the file's popularity band and a small touch counter.
type poolEntry struct {
	id         workload.FileID
	size       int64
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
// policy instance binds to exactly one pool.
func NewStoragePoolPolicy(capacity int64, hint int, pol EvictionPolicy) *StoragePool {
	if capacity <= 0 {
		panic("cloud: pool capacity must be positive")
	}
	if hint < 0 {
		hint = 0
	}
	p := &StoragePool{
		capacity: capacity,
		entries:  make([]poolEntry, 0, hint),
		index:    make(map[workload.FileID]int32, hint),
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

// Capacity returns the pool's byte capacity.
func (p *StoragePool) Capacity() int64 { return p.capacity }

// Used returns the bytes currently stored.
func (p *StoragePool) Used() int64 { return p.used }

// Len returns the number of cached files.
func (p *StoragePool) Len() int { return len(p.index) }

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
		Files:         len(p.index),
		Hits:          p.hits,
		Misses:        p.misses,
		Evictions:     p.evictions,
		HitBytes:      p.hitBytes,
		Prefetches:    p.prefetches,
		PrefetchBytes: p.prefetchedBy,
	}
}

// Contains reports whether the file is cached without touching policy
// order or counters (used by ODR's read-only cache probe).
func (p *StoragePool) Contains(id workload.FileID) bool {
	_, ok := p.index[id]
	return ok
}

// Lookup reports whether the file is cached, counting a hit or miss and
// refreshing the policy's placement on hit.
func (p *StoragePool) Lookup(id workload.FileID) bool {
	e, ok := p.index[id]
	if !ok {
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
	if size < 0 {
		panic("cloud: negative file size")
	}
	if e, ok := p.index[id]; ok {
		return p.refresh(e, id, size, band)
	}
	if size > p.capacity {
		return false
	}
	for p.used+size > p.capacity {
		if !p.evictOne() {
			return false
		}
	}
	e := p.alloc()
	ent := &p.entries[e]
	ent.id = id
	ent.size = size
	ent.band = band
	ent.freq = 0
	p.index[id] = e
	p.used += size
	p.policy.onAdd(e)
	return true
}

// refresh re-touches a resident entry, applying a size correction when
// the caller's size disagrees with the cached one. A new band moves the
// entry off the list its old band named before the touch, so the touch
// places it on the new band's list as a hit would.
func (p *StoragePool) refresh(e int32, id workload.FileID, size int64, band workload.PopularityBand) bool {
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
	_, still := p.index[id]
	return still
}

// prefetchAdd admits a file during a policy's prefetch pass: like
// AddBanded but counted separately and never evicting to make room — a
// prediction only fills capacity that demand left free.
func (p *StoragePool) prefetchAdd(id workload.FileID, size int64, band workload.PopularityBand) bool {
	if size <= 0 || p.used+size > p.capacity {
		return false
	}
	if _, ok := p.index[id]; ok {
		return false
	}
	e := p.alloc()
	ent := &p.entries[e]
	ent.id = id
	ent.size = size
	ent.band = band
	ent.freq = 0
	p.index[id] = e
	p.used += size
	p.policy.onAdd(e)
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
	delete(p.index, ent.id)
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
