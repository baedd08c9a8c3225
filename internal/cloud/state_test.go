package cloud

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"odr/internal/workload"
)

// stateUniverse is how many distinct files the state tests draw from:
// few enough that lookups hit and re-adds resize.
const stateUniverse = 61

func newPolicyPool(t testing.TB, name string, capacity int64) *StoragePool {
	t.Helper()
	pol, err := NewPolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	return NewStoragePoolPolicy(capacity, 0, pol)
}

// newKeyedPool is newPolicyPool for an owner that numbers the files.
func newKeyedPool(t testing.TB, name string, capacity int64) *StoragePool {
	t.Helper()
	pol, err := NewPolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	return NewStoragePoolKeyed(capacity, 0, pol)
}

// stateOp applies one encoded operation — a lookup, a banded add, or a
// clock tick to now — and returns its answer. A re-add may name another
// band than the file was cached under, which AddMeta never does.
func stateOp(p *StoragePool, op uint32, now time.Duration) bool {
	id := workload.FileIDFromIndex(uint64(op % stateUniverse))
	switch (op >> 8) % 4 {
	case 0:
		return p.Lookup(id)
	case 1, 2:
		return p.AddBanded(id, int64((op>>12)%10)*45+10, workload.PopularityBand((op>>16)%3))
	default:
		p.Tick(now)
		return false
	}
}

// ownerKey numbers stateOp's files the way an owner might: by a
// permutation of their indices, so the keys are dense, in [0,
// stateUniverse), but in no order the pool would pick itself.
func ownerKey(i uint64) int32 { return int32(i * 37 % stateUniverse) }

// keyedOp is stateOp on an owner-keyed pool: the same file, named by its
// owner key.
func keyedOp(p *StoragePool, op uint32, now time.Duration) bool {
	k := ownerKey(uint64(op % stateUniverse))
	switch (op >> 8) % 4 {
	case 0:
		return p.LookupKey(k)
	case 1, 2:
		return p.AddKey(k, int64((op>>12)%10)*45+10, workload.PopularityBand((op>>16)%3))
	default:
		p.Tick(now)
		return false
	}
}

// TestPoolStateRestoreMatchesUninterrupted: for every policy, an
// owner-keyed pool restored from another's state at a random cut behaves
// like the pool it was cut from for every operation after the cut — the
// same answers, the same Stats, the same membership over the key space,
// and the same victims, by key, in the same order when both are drained.
// The clock advances by whole hours, so prewarm's trough passes fire on
// both sides of the cut.
func TestPoolStateRestoreMatchesUninterrupted(t *testing.T) {
	const capacity = 1000
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			f := func(ops []uint32, cut uint16) bool {
				times := make([]time.Duration, len(ops))
				var now time.Duration
				for i, op := range ops {
					now += time.Duration(op>>20%5) * time.Hour
					times[i] = now
				}
				k := int(cut) % (len(ops) + 1)
				a := newKeyedPool(t, name, capacity)
				for i := 0; i < k; i++ {
					keyedOp(a, ops[i], times[i])
				}
				b := newKeyedPool(t, name, capacity)
				if err := b.RestoreState(a.AppendState(nil), stateUniverse); err != nil {
					t.Errorf("restoring a pool's own state: %v", err)
					return false
				}
				for i := k; i < len(ops); i++ {
					if keyedOp(a, ops[i], times[i]) != keyedOp(b, ops[i], times[i]) {
						return false
					}
				}
				if a.Stats() != b.Stats() {
					return false
				}
				for k := int32(0); k < stateUniverse; k++ {
					if a.ContainsKey(k) != b.ContainsKey(k) {
						return false
					}
				}
				for {
					va, vb := a.policy.victim(), b.policy.victim()
					if va == noEntry || vb == noEntry {
						return va == vb
					}
					if a.entries[va].key != b.entries[vb].key {
						return false
					}
					a.evictOne()
					b.evictOne()
				}
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKeyedPoolMatchesSelfNumbered: a pool its owner numbers and a pool
// that numbers files itself, driven by the same operations, answer alike,
// prefetch alike and hold the same files, under every policy — and so
// does an owner-keyed pool restored, at a random cut, from the owner-keyed
// pool's state.
func TestKeyedPoolMatchesSelfNumbered(t *testing.T) {
	const capacity = 1000
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			f := func(ops []uint32, cut uint16) bool {
				self, owned := newPolicyPool(t, name, capacity), newKeyedPool(t, name, capacity)
				var restored *StoragePool
				k := int(cut) % (len(ops) + 1)
				var now time.Duration
				for i, op := range ops {
					if i == k {
						restored = newKeyedPool(t, name, capacity)
						if err := restored.RestoreState(owned.AppendState(nil), stateUniverse); err != nil {
							t.Errorf("restoring an owner-keyed pool's state: %v", err)
							return false
						}
					}
					now += time.Duration(op>>20%5) * time.Hour
					want := stateOp(self, op, now)
					if keyedOp(owned, op, now) != want {
						return false
					}
					if restored != nil && (keyedOp(restored, op, now) != want || restored.Stats() != self.Stats()) {
						return false
					}
					if owned.Stats() != self.Stats() {
						return false
					}
				}
				for _, p := range []*StoragePool{owned, restored} {
					if p == nil {
						continue
					}
					for i := uint64(0); i < stateUniverse; i++ {
						if p.ContainsKey(ownerKey(i)) != self.Contains(workload.FileIDFromIndex(i)) {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKeyedPoolRefusesFileIDs: an owner-keyed pool takes keys only; a
// FileID call is a programming error and panics.
func TestKeyedPoolRefusesFileIDs(t *testing.T) {
	p := NewStoragePoolKeyed(100, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup by FileID on an owner-keyed pool did not panic")
		}
	}()
	p.Lookup(id(1))
}

// TestSelfNumberedPoolRefusesState: checkpoint state is an owner-keyed
// pool's; AppendState or RestoreState on a pool that numbers its files
// itself is a programming error and panics.
func TestSelfNumberedPoolRefusesState(t *testing.T) {
	state := NewStoragePoolKeyed(100, 0, nil).AppendState(nil)
	for name, call := range map[string]func(p *StoragePool){
		"AppendState":  func(p *StoragePool) { p.AppendState(nil) },
		"RestoreState": func(p *StoragePool) { _ = p.RestoreState(state, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a self-numbered pool did not panic", name)
				}
			}()
			call(NewStoragePool(100))
		}()
	}
}

// TestPoolRebandKeepsListsWhole: re-adding a resident file under another
// band leaves it on exactly one list, placed as a hit would place it —
// for the band policy, the front of its new band's list — so the pool's
// state still round-trips and the band policy evicts by the new band.
func TestPoolRebandKeepsListsWhole(t *testing.T) {
	const a, b, c, keys = 1, 2, 3, 4
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			p := newKeyedPool(t, name, 100)
			p.AddKey(a, 30, workload.BandUnpopular)
			p.AddKey(b, 30, workload.BandUnpopular)
			p.AddKey(a, 30, workload.BandHighlyPopular)
			p.AddKey(c, 60, workload.BandUnpopular)
			// Every policy evicts b for c: a was touched after b (lru,
			// prewarm), twice (lfu), or moved to the protected band (band).
			if p.ContainsKey(b) || !p.ContainsKey(a) || !p.ContainsKey(c) {
				t.Fatalf("resident a=%v b=%v c=%v, want a and c", p.ContainsKey(a), p.ContainsKey(b), p.ContainsKey(c))
			}
			q := newKeyedPool(t, name, 100)
			if err := q.RestoreState(p.AppendState(nil), keys); err != nil {
				t.Fatalf("restoring the pool's own state: %v", err)
			}
			if got, want := drainResident(t, q), drainResident(t, p); !slices.Equal(got, want) {
				t.Fatalf("restored pool evicts %v, original %v", got, want)
			}
		})
	}
	p := newKeyedPool(t, "band", 100)
	p.AddKey(a, 30, workload.BandHighlyPopular)
	p.AddKey(b, 30, workload.BandUnpopular)
	p.AddKey(a, 30, workload.BandUnpopular)
	if got, want := drainResident(t, p), []int32{b, a}; !slices.Equal(got, want) {
		t.Fatalf("band pool evicts keys %v after a moves down to b's band, want %v", got, want)
	}
}

// drainResident is drainEvictions by key, for a pool whose lists may be
// corrupt: it fails the test rather than loop once it has evicted more
// files than the pool held.
func drainResident(t *testing.T, p *StoragePool) []int32 {
	t.Helper()
	var order []int32
	for n := p.Len(); ; {
		e := p.policy.victim()
		if e == noEntry {
			return order
		}
		if len(order) == n {
			t.Fatalf("pool of %d files still names a victim after evicting %v", n, order)
		}
		order = append(order, p.entries[e].key)
		p.evictOne()
	}
}

// TestPoolStateRejectsCorruption: a state restores only into a pool of
// its own policy and capacity whose owner numbers every key it names, and
// names each resident file once; no strict prefix of a state restores,
// and no single-bit flip makes RestoreState panic — it errors, or it
// yields a pool whose own state is the flipped bytes.
func TestPoolStateRejectsCorruption(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			p := newKeyedPool(t, name, 1000)
			for i := 0; i < 300; i++ {
				keyedOp(p, uint32(i*2654435761), time.Duration(i)*time.Hour)
			}
			if p.Stats().Evictions == 0 {
				t.Fatal("the operation mix never evicts; the state has no free slots to check")
			}
			state := p.AppendState(nil)

			// The resident slots, and the largest key the entry table
			// names: the first key an owner of top files refuses.
			var resident []int32
			for _, e := range p.slots {
				if e != noEntry {
					resident = append(resident, e)
				}
			}
			if len(resident) < 2 {
				t.Fatalf("%d resident files; the duplicate-key row needs two", len(resident))
			}
			var top int32
			for _, e := range p.entries {
				top = max(top, e.key)
			}
			// withKey is state with slot e's key rewritten to k.
			withKey := func(e, k int32) []byte {
				b := slices.Clone(state)
				off := 1 + len(name) + 8 + 8 + 4 + 6*8 + 4 + int(e)*poolEntryLen
				binary.LittleEndian.PutUint32(b[off:], uint32(k))
				return b
			}
			other := "lru"
			if name == other {
				other = "band"
			}
			for _, tc := range []struct {
				row      string
				policy   string
				capacity int64
				state    []byte
				keys     int
				want     string
			}{
				{"another policy", other, 1000, state, stateUniverse, "policy"},
				{"a smaller pool", name, 999, state, stateUniverse, "capacity"},
				{"a key at the owner's count", name, 1000, withKey(resident[0], stateUniverse), stateUniverse,
					fmt.Sprintf("file key %d, outside the owner's %d", stateUniverse, stateUniverse)},
				{"an owner numbering fewer files", name, 1000, state, int(top),
					fmt.Sprintf("file key %d, outside the owner's %d", top, top)},
				{"a key listed twice", name, 1000, withKey(resident[0], p.entries[resident[1]].key), stateUniverse,
					fmt.Sprintf("file key %d twice", p.entries[resident[1]].key)},
			} {
				err := newKeyedPool(t, tc.policy, tc.capacity).RestoreState(tc.state, tc.keys)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: RestoreState = %v, want an error containing %q", tc.row, err, tc.want)
				}
			}
			for cut := 0; cut < len(state); cut++ {
				if err := newKeyedPool(t, name, 1000).RestoreState(state[:cut], stateUniverse); err == nil {
					t.Fatalf("state truncated to %d of %d bytes restored", cut, len(state))
				}
			}
			flipped := make([]byte, len(state))
			for bit := 0; bit < 8*len(state); bit++ {
				copy(flipped, state)
				flipped[bit/8] ^= 1 << (bit % 8)
				q := newKeyedPool(t, name, 1000)
				if q.RestoreState(flipped, stateUniverse) != nil {
					continue
				}
				if !bytes.Equal(q.AppendState(nil), flipped) {
					t.Fatalf("bit %d: accepted state does not read back as itself", bit)
				}
			}
		})
	}
}
