package cloud

import (
	"bytes"
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

// TestPoolStateRestoreMatchesUninterrupted: for every policy, a pool
// restored from another's state at a random cut behaves like the pool it
// was cut from for every operation after the cut — the same answers, the
// same Stats, the same membership over the ID space, and the same victims
// in the same order when both are drained. The clock advances by whole
// hours, so prewarm's trough passes fire on both sides of the cut.
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
				a := newPolicyPool(t, name, capacity)
				for i := 0; i < k; i++ {
					stateOp(a, ops[i], times[i])
				}
				b := newPolicyPool(t, name, capacity)
				if err := b.RestoreState(a.AppendState(nil)); err != nil {
					t.Errorf("restoring a pool's own state: %v", err)
					return false
				}
				for i := k; i < len(ops); i++ {
					if stateOp(a, ops[i], times[i]) != stateOp(b, ops[i], times[i]) {
						return false
					}
				}
				if a.Stats() != b.Stats() {
					return false
				}
				for i := uint64(0); i < stateUniverse; i++ {
					id := workload.FileIDFromIndex(i)
					if a.Contains(id) != b.Contains(id) {
						return false
					}
				}
				for {
					va, vb := a.policy.victim(), b.policy.victim()
					if va == noEntry || vb == noEntry {
						return va == vb
					}
					if a.entries[va].id != b.entries[vb].id {
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

// ownerKey numbers stateOp's files the way an owner might: by a
// permutation of their indices, so the keys are dense but in no order the
// pool would pick itself.
func ownerKey(i uint64) int32 { return int32(i * 37 % stateUniverse) }

// keyedOp is stateOp on an owner-keyed pool: the same file, named by its
// owner key.
func keyedOp(p *StoragePool, op uint32, now time.Duration) bool {
	i := uint64(op % stateUniverse)
	id, k := workload.FileIDFromIndex(i), ownerKey(i)
	switch (op >> 8) % 4 {
	case 0:
		return p.LookupKey(k)
	case 1, 2:
		return p.AddKey(k, id, int64((op>>12)%10)*45+10, workload.PopularityBand((op>>16)%3))
	default:
		p.Tick(now)
		return false
	}
}

// TestKeyedPoolMatchesSelfNumbered: a pool its owner numbers and a pool
// that numbers files itself, driven by the same operations, answer alike,
// prefetch alike, hold the same files and write the same state bytes,
// under every policy — and so does an owner-keyed pool restored, at a
// random cut, from the self-numbered pool's state.
func TestKeyedPoolMatchesSelfNumbered(t *testing.T) {
	const capacity = 1000
	byID := make(map[workload.FileID]uint64, stateUniverse)
	for i := uint64(0); i < stateUniverse; i++ {
		byID[workload.FileIDFromIndex(i)] = i
	}
	keyOf := func(id workload.FileID) int32 {
		i, ok := byID[id]
		if !ok {
			t.Fatalf("owner asked to key a file outside its universe: %v", id)
		}
		return ownerKey(i)
	}
	keyed := func(name string) *StoragePool {
		pol, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		return NewStoragePoolKeyed(capacity, 0, pol, keyOf)
	}
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			f := func(ops []uint32, cut uint16) bool {
				self, owned := newPolicyPool(t, name, capacity), keyed(name)
				var restored *StoragePool
				k := int(cut) % (len(ops) + 1)
				var now time.Duration
				for i, op := range ops {
					if i == k {
						restored = keyed(name)
						if err := restored.RestoreState(self.AppendState(nil)); err != nil {
							t.Errorf("restoring a self-numbered state into an owner-keyed pool: %v", err)
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
				state := self.AppendState(nil)
				for _, p := range []*StoragePool{owned, restored} {
					if p == nil {
						continue
					}
					if !bytes.Equal(p.AppendState(nil), state) {
						return false
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
	p := NewStoragePoolKeyed(100, 0, nil, func(workload.FileID) int32 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup by FileID on an owner-keyed pool did not panic")
		}
	}()
	p.Lookup(id(1))
}

// TestPoolRebandKeepsListsWhole: re-adding a resident file under another
// band leaves it on exactly one list, placed as a hit would place it —
// for the band policy, the front of its new band's list — so the pool's
// state still round-trips and the band policy evicts by the new band.
func TestPoolRebandKeepsListsWhole(t *testing.T) {
	a, b, c := id(1), id(2), id(3)
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			p := newPolicyPool(t, name, 100)
			p.AddBanded(a, 30, workload.BandUnpopular)
			p.AddBanded(b, 30, workload.BandUnpopular)
			p.AddBanded(a, 30, workload.BandHighlyPopular)
			p.AddBanded(c, 60, workload.BandUnpopular)
			// Every policy evicts b for c: a was touched after b (lru,
			// prewarm), twice (lfu), or moved to the protected band (band).
			if p.Contains(b) || !p.Contains(a) || !p.Contains(c) {
				t.Fatalf("resident a=%v b=%v c=%v, want a and c", p.Contains(a), p.Contains(b), p.Contains(c))
			}
			q := newPolicyPool(t, name, 100)
			if err := q.RestoreState(p.AppendState(nil)); err != nil {
				t.Fatalf("restoring the pool's own state: %v", err)
			}
			if got, want := drainResident(t, q), drainResident(t, p); !slices.Equal(got, want) {
				t.Fatalf("restored pool evicts %v, original %v", got, want)
			}
		})
	}
	p := newPolicyPool(t, "band", 100)
	p.AddBanded(a, 30, workload.BandHighlyPopular)
	p.AddBanded(b, 30, workload.BandUnpopular)
	p.AddBanded(a, 30, workload.BandUnpopular)
	if got, want := drainResident(t, p), ids(2, 1); !slices.Equal(got, want) {
		t.Fatalf("band pool evicts %v after a moves down to b's band, want %v", got, want)
	}
}

// drainResident is drainEvictions for a pool whose lists may be corrupt:
// it fails the test rather than loop once it has evicted more files than
// the pool held.
func drainResident(t *testing.T, p *StoragePool) []workload.FileID {
	t.Helper()
	var order []workload.FileID
	for n := p.Len(); ; {
		e := p.policy.victim()
		if e == noEntry {
			return order
		}
		if len(order) == n {
			t.Fatalf("pool of %d files still names a victim after evicting %v", n, order)
		}
		order = append(order, p.entries[e].id)
		p.evictOne()
	}
}

// TestPoolStateRejectsCorruption: a state restores only into a pool of
// its own policy and capacity, no strict prefix of a state restores, and
// no single-bit flip makes RestoreState panic — it errors, or it yields a
// pool whose own state is the flipped bytes.
func TestPoolStateRejectsCorruption(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			p := newPolicyPool(t, name, 1000)
			for i := 0; i < 300; i++ {
				stateOp(p, uint32(i*2654435761), time.Duration(i)*time.Hour)
			}
			if p.Stats().Evictions == 0 {
				t.Fatal("the operation mix never evicts; the state has no free slots to check")
			}
			state := p.AppendState(nil)

			other := "lru"
			if name == other {
				other = "band"
			}
			if err := newPolicyPool(t, other, 1000).RestoreState(state); err == nil || !strings.Contains(err.Error(), "policy") {
				t.Fatalf("restore into a %s pool = %v, want a policy error", other, err)
			}
			if err := newPolicyPool(t, name, 999).RestoreState(state); err == nil || !strings.Contains(err.Error(), "capacity") {
				t.Fatalf("restore into a smaller pool = %v, want a capacity error", err)
			}
			for cut := 0; cut < len(state); cut++ {
				if err := newPolicyPool(t, name, 1000).RestoreState(state[:cut]); err == nil {
					t.Fatalf("state truncated to %d of %d bytes restored", cut, len(state))
				}
			}
			flipped := make([]byte, len(state))
			for bit := 0; bit < 8*len(state); bit++ {
				copy(flipped, state)
				flipped[bit/8] ^= 1 << (bit % 8)
				q := newPolicyPool(t, name, 1000)
				if q.RestoreState(flipped) != nil {
					continue
				}
				if !bytes.Equal(q.AppendState(nil), flipped) {
					t.Fatalf("bit %d: accepted state does not read back as itself", bit)
				}
			}
		})
	}
}
