package cloud

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"odr/internal/workload"
)

// A pool's state as AppendState writes it, little-endian:
//
//	policy name   u8 length, then the name
//	capacity      i64
//	used          i64
//	free list     i32 head
//	counters      6 × u64: hits, misses, evictions, hit bytes, prefetches, prefetch bytes
//	entry table   u32 count, then per slot: key i32, size i64, prev i32, next i32, band u8, freq u8
//	policy        the policy's list heads and scalars (EvictionPolicy.appendState)
//
// Files are named by their owner's key. The entry table goes out
// verbatim, vacated slots included, so a restored pool has the writer's
// slot numbers and free-list order.
const poolEntryLen = 4 + 8 + 4 + 4 + 1 + 1

// AppendState appends the pool's complete mutable state to dst: with the
// capacity and policy the pool was built with, everything a later
// operation reads. RestoreState on a fresh pool of the same capacity,
// policy and owner numbering then answers every later LookupKey, AddKey
// and Tick, evicts, and counts exactly as this pool does
// (TestPoolStateRestoreMatchesUninterrupted). It panics on a
// self-numbered pool, whose numbering is not in its entries.
func (p *StoragePool) AppendState(dst []byte) []byte {
	p.mustBeKeyed()
	name := p.policy.Name()
	dst = append(dst, byte(len(name)))
	dst = append(dst, name...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.capacity))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.used))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(p.free))
	for _, n := range p.counters() {
		dst = binary.LittleEndian.AppendUint64(dst, *n)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.entries)))
	for i := range p.entries {
		e := &p.entries[i]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.key))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.size))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.prev))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(e.next))
		dst = append(dst, byte(e.band), e.freq)
	}
	return p.policy.appendState(dst)
}

// mustBeKeyed panics on a self-numbered pool, which has no state.
func (p *StoragePool) mustBeKeyed() {
	if p.keys != nil {
		panic("cloud: a self-numbered pool has no checkpoint state; build it with NewStoragePoolKeyed")
	}
}

// counters lists the pool's counters in state order.
func (p *StoragePool) counters() [6]*uint64 {
	return [6]*uint64{&p.hits, &p.misses, &p.evictions, &p.hitBytes, &p.prefetches, &p.prefetchedBy}
}

// RestoreState replaces the pool's state with one AppendState wrote from a
// pool of the same capacity and policy whose owner numbered its files as
// this pool's does, with keys in [0, keys). The bytes are checked before
// the pool relies on them: every key must fall in that range; every slot
// must sit on exactly one of the free list and the policy's lists, with
// consistent links, on the list its band or frequency names; resident
// files must be distinct and their sizes must add up to the byte count. A
// state no pool could have written is an error, never a later panic.
// After an error the pool is unusable. It panics on a self-numbered pool.
func (p *StoragePool) RestoreState(b []byte, keys int) error {
	p.mustBeKeyed()
	r := &stateReader{b: b, keys: keys}
	name := string(r.take(int(r.u8())))
	capacity := int64(r.u64())
	if r.err == nil && name != p.policy.Name() {
		return fmt.Errorf("cloud: pool state is for policy %q, this pool runs %q", name, p.policy.Name())
	}
	if r.err == nil && capacity != p.capacity {
		return fmt.Errorf("cloud: pool state has capacity %d, this pool %d", capacity, p.capacity)
	}
	p.used = int64(r.u64())
	p.free = r.i32()
	for _, n := range p.counters() {
		*n = r.u64()
	}
	n := int64(r.u32())
	if r.err == nil && (n > math.MaxInt32 || n > int64(len(r.b)/poolEntryLen)) {
		return fmt.Errorf("cloud: pool state claims %d entries in %d bytes", n, len(r.b))
	}
	p.entries = make([]poolEntry, n)
	for i := range p.entries {
		e := &p.entries[i]
		e.key = r.key()
		e.size = int64(r.u64())
		e.prev, e.next = r.i32(), r.i32()
		e.band = workload.PopularityBand(r.u8())
		e.freq = r.u8()
	}
	p.policy.restoreState(r)
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("cloud: %d bytes after the pool state", len(r.b))
	}
	return p.reindex()
}

// reindex rebuilds the dedup index from a restored entry table, checking
// the table against the free list and the policy's lists as it goes.
func (p *StoragePool) reindex() error {
	n := int32(len(p.entries))
	placed := make([]bool, n)
	place := func(e int32) error {
		if e < 0 || e >= n {
			return fmt.Errorf("cloud: pool state links to slot %d of %d", e, n)
		}
		if placed[e] {
			return fmt.Errorf("cloud: pool state reaches slot %d twice", e)
		}
		placed[e] = true
		return nil
	}
	for e := p.free; e != noEntry; e = p.entries[e].next {
		if err := place(e); err != nil {
			return err
		}
	}
	p.slots, p.files = p.slots[:0], 0
	var used int64
	for _, l := range p.policy.entryLists() {
		last := noEntry
		for e := l.head; e != noEntry; e = p.entries[e].next {
			if err := place(e); err != nil {
				return err
			}
			ent := &p.entries[e]
			switch {
			case ent.prev != last:
				return fmt.Errorf("cloud: pool state slot %d links back to %d, want %d", e, ent.prev, last)
			case p.policy.listFor(e) != l:
				return fmt.Errorf("cloud: pool state slot %d is on a list its band and frequency do not name", e)
			case p.ContainsKey(ent.key):
				return fmt.Errorf("cloud: pool state holds file key %d twice", ent.key)
			case ent.size < 0 || ent.size > p.capacity-used:
				return fmt.Errorf("cloud: pool state's files overfill its %d-byte capacity", p.capacity)
			}
			p.setSlot(ent.key, e)
			p.files++
			used += ent.size
			last = e
		}
		if l.tail != last {
			return fmt.Errorf("cloud: pool state list ends at slot %d, its tail says %d", last, l.tail)
		}
	}
	for e, ok := range placed {
		if !ok {
			return fmt.Errorf("cloud: pool state slot %d is on no list", e)
		}
	}
	if used != p.used {
		return fmt.Errorf("cloud: pool state counts %d bytes used, its files hold %d", p.used, used)
	}
	return nil
}

// stateReader decodes a pool state. The first failed read records an
// error and every read after it returns zero, so a decoder checks once,
// at the end.
type stateReader struct {
	b    []byte
	err  error
	keys int // the owner's key count, which every file key read is below
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n bytes, or nil past the end.
func (r *stateReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.fail("cloud: pool state truncated")
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *stateReader) u8() byte {
	if b := r.take(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

func (r *stateReader) u32() uint32 {
	if b := r.take(4); len(b) == 4 {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *stateReader) u64() uint64 {
	if b := r.take(8); len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *stateReader) i32() int32 { return int32(r.u32()) }

// key reads a file key, failing on one outside the owner's numbering.
func (r *stateReader) key() int32 {
	k := r.i32()
	if r.err == nil && (k < 0 || int(k) >= r.keys) {
		r.fail("cloud: pool state names file key %d, outside the owner's %d", k, r.keys)
	}
	return k
}

func (r *stateReader) list() entryList { return entryList{head: r.i32(), tail: r.i32()} }

func appendList(dst []byte, l entryList) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(l.head))
	return binary.LittleEndian.AppendUint32(dst, uint32(l.tail))
}

func (l *lruPolicy) appendState(dst []byte) []byte { return appendList(dst, l.list) }
func (l *lruPolicy) restoreState(r *stateReader)   { l.list = r.list() }
func (l *lruPolicy) entryLists() []*entryList      { return []*entryList{&l.list} }
func (l *lruPolicy) listFor(int32) *entryList      { return &l.list }

func (l *lfuPolicy) appendState(dst []byte) []byte {
	for _, b := range l.buckets {
		dst = appendList(dst, b)
	}
	return binary.LittleEndian.AppendUint64(dst, uint64(l.touches))
}

func (l *lfuPolicy) restoreState(r *stateReader) {
	for i := range l.buckets {
		l.buckets[i] = r.list()
	}
	l.touches = int(r.u64())
}

func (l *lfuPolicy) entryLists() []*entryList {
	out := make([]*entryList, len(l.buckets))
	for i := range l.buckets {
		out[i] = &l.buckets[i]
	}
	return out
}

func (l *lfuPolicy) listFor(e int32) *entryList {
	if f := l.p.entries[e].freq; f <= lfuMaxFreq {
		return &l.buckets[f]
	}
	return nil
}

func (b *bandPolicy) appendState(dst []byte) []byte {
	for _, l := range b.lists {
		dst = appendList(dst, l)
	}
	return dst
}

func (b *bandPolicy) restoreState(r *stateReader) {
	for i := range b.lists {
		b.lists[i] = r.list()
	}
}

func (b *bandPolicy) entryLists() []*entryList {
	return []*entryList{&b.lists[0], &b.lists[1], &b.lists[2]}
}

func (b *bandPolicy) listFor(e int32) *entryList {
	if band := b.p.entries[e].band; int(band) < len(b.lists) {
		return &b.lists[band]
	}
	return nil
}

// ghostLen is one remembered ghost in a prewarm state: key, size, band,
// hits.
const ghostLen = 4 + 8 + 1 + 1

func (w *prewarmPolicy) appendState(dst []byte) []byte {
	dst = appendList(dst, w.list)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(w.nextWake))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w.gLen))
	for i := 0; i < w.gLen; i++ {
		g := &w.ghosts[(w.gHead+i)%ghostCap]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(g.key))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(g.size))
		dst = append(dst, byte(g.band), g.hits)
	}
	return dst
}

// restoreState refills the ghost ring oldest first from its start: the
// ring's order, not where it starts, is all remember and prefetch read.
func (w *prewarmPolicy) restoreState(r *stateReader) {
	w.list = r.list()
	w.nextWake = time.Duration(r.u64())
	n := int64(r.u32())
	if n > ghostCap || n*ghostLen > int64(len(r.b)) {
		r.fail("cloud: prewarm state claims %d ghosts (the ring holds %d) in %d bytes", n, ghostCap, len(r.b))
		return
	}
	w.gHead, w.gLen = 0, 0
	for ; n > 0; n-- {
		var g ghostEntry
		g.key = r.key()
		g.size = int64(r.u64())
		g.band = workload.PopularityBand(r.u8())
		g.hits = r.u8()
		w.remember(g)
	}
}

func (w *prewarmPolicy) entryLists() []*entryList { return []*entryList{&w.list} }
func (w *prewarmPolicy) listFor(int32) *entryList { return &w.list }
