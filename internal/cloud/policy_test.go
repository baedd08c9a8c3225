package cloud

import (
	"testing"
	"time"

	"odr/internal/workload"
)

// poolOp is one scripted pool operation in an eviction-order table.
type poolOp struct {
	op   string // "add", "hit", "tick"
	id   uint64
	size int64
	band workload.PopularityBand
	now  time.Duration
}

func add(n uint64, size int64, band workload.PopularityBand) poolOp {
	return poolOp{op: "add", id: n, size: size, band: band}
}
func hit(n uint64) poolOp           { return poolOp{op: "hit", id: n} }
func tick(now time.Duration) poolOp { return poolOp{op: "tick", now: now} }
func ids(ns ...uint64) []workload.FileID {
	out := make([]workload.FileID, len(ns))
	for i, n := range ns {
		out[i] = id(n)
	}
	return out
}

// idOf is the FileID a self-numbered pool numbered as entry slot e's key.
func idOf(p *StoragePool, e int32) workload.FileID {
	for id, k := range p.keys {
		if k == p.entries[e].key {
			return id
		}
	}
	panic("cloud test: entry key the pool never numbered")
}

// drainEvictions evicts until a self-numbered pool is empty, returning the
// victims in the order the policy chose them.
func drainEvictions(p *StoragePool) []workload.FileID {
	var order []workload.FileID
	for {
		e := p.policy.victim()
		if e == noEntry {
			return order
		}
		order = append(order, idOf(p, e))
		if !p.evictOne() {
			return order
		}
	}
}

// TestPolicyEvictionOrder pins each policy's victim ordering with scripted
// admission/touch sequences: build the resident set with ample capacity,
// then drain and compare the full eviction order.
func TestPolicyEvictionOrder(t *testing.T) {
	cases := []struct {
		name   string
		policy string
		ops    []poolOp
		want   []workload.FileID
	}{
		{
			name:   "lru evicts least recently touched",
			policy: "lru",
			ops:    []poolOp{add(1, 10, 0), add(2, 10, 0), add(3, 10, 0), hit(1)},
			want:   ids(2, 3, 1),
		},
		{
			name:   "lru re-add refreshes recency",
			policy: "lru",
			ops:    []poolOp{add(1, 10, 0), add(2, 10, 0), add(1, 10, 0)},
			want:   ids(2, 1),
		},
		{
			name:   "lfu evicts coldest frequency class first",
			policy: "lfu",
			ops:    []poolOp{add(1, 10, 0), add(2, 10, 0), add(3, 10, 0), hit(1), hit(1), hit(2)},
			want:   ids(3, 2, 1),
		},
		{
			name:   "lfu breaks frequency ties by recency",
			policy: "lfu",
			// All three stay at frequency 0; the oldest admission goes first.
			ops:  []poolOp{add(1, 10, 0), add(2, 10, 0), add(3, 10, 0)},
			want: ids(1, 2, 3),
		},
		{
			name:   "lfu frequency outranks recency",
			policy: "lfu",
			// 1 is touched once and then goes cold; the never-touched but
			// fresher 2 and 3 are still sacrificed first.
			ops:  []poolOp{add(1, 10, 0), hit(1), add(2, 10, 0), add(3, 10, 0)},
			want: ids(2, 3, 1),
		},
		{
			name:   "band protects popular files regardless of recency",
			policy: "band",
			ops: []poolOp{
				add(1, 10, workload.BandHighlyPopular),
				add(2, 10, workload.BandPopular),
				add(3, 10, workload.BandUnpopular),
				hit(3), // most recent touch cannot save an unpopular file
			},
			want: ids(3, 2, 1),
		},
		{
			name:   "band keeps lru order inside a band",
			policy: "band",
			ops: []poolOp{
				add(1, 10, workload.BandUnpopular),
				add(2, 10, workload.BandUnpopular),
				add(3, 10, workload.BandPopular),
				hit(1),
			},
			want: ids(2, 1, 3),
		},
		{
			name:   "prewarm demand path is plain lru",
			policy: "prewarm",
			ops:    []poolOp{add(1, 10, 0), add(2, 10, 0), add(3, 10, 0), hit(2)},
			want:   ids(1, 3, 2),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol, err := NewPolicy(tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			p := NewStoragePoolPolicy(1<<20, 0, pol)
			for _, op := range tc.ops {
				switch op.op {
				case "add":
					p.AddBanded(id(op.id), op.size, op.band)
				case "hit":
					if !p.Lookup(id(op.id)) {
						t.Fatalf("hit(%d): not resident", op.id)
					}
				case "tick":
					p.Tick(op.now)
				}
			}
			got := drainEvictions(p)
			if len(got) != len(tc.want) {
				t.Fatalf("evicted %d files, want %d: %v", len(got), len(tc.want), got)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("eviction %d: got %v, want %v", i, got[i], tc.want[i])
				}
			}
			if p.Len() != 0 || p.Used() != 0 {
				t.Fatalf("drained pool not empty: %d files, %d bytes", p.Len(), p.Used())
			}
		})
	}
}

// TestPolicyNames pins the registry: every listed name constructs, the
// empty name means LRU, and unknown names are rejected with the list.
func TestPolicyNames(t *testing.T) {
	for _, name := range PolicyNames() {
		pol, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if pol.Name() != name {
			t.Fatalf("NewPolicy(%q).Name() = %q", name, pol.Name())
		}
	}
	def, err := NewPolicy("")
	if err != nil || def.Name() != "lru" {
		t.Fatalf("NewPolicy(\"\") = %v, %v; want lru", def, err)
	}
	if _, err := NewPolicy("clairvoyant"); err == nil {
		t.Fatal("NewPolicy accepted an unknown policy name")
	}
}

// TestPolicyRebindPanics pins the one-pool-per-policy contract.
func TestPolicyRebindPanics(t *testing.T) {
	for _, name := range PolicyNames() {
		pol, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		NewStoragePoolPolicy(100, 0, pol)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("policy %q: binding to a second pool did not panic", name)
				}
			}()
			NewStoragePoolPolicy(100, 0, pol)
		}()
	}
}

// TestLFUDecay drives enough touches through a small pool to trigger the
// amortized halving and checks that frequencies actually decay: a file
// that was hot before the decay can be overtaken afterwards.
func TestLFUDecay(t *testing.T) {
	pol, _ := NewPolicy("lfu")
	p := NewStoragePoolPolicy(1<<20, 0, pol)
	p.Add(id(1), 10)
	p.Add(id(2), 10)
	// Saturate 1's frequency counter.
	for i := 0; i < lfuMaxFreq+5; i++ {
		p.Lookup(id(1))
	}
	e1 := p.slot(p.keys[id(1)])
	if got := p.entries[e1].freq; got != lfuMaxFreq {
		t.Fatalf("freq(1) = %d, want cap %d", got, lfuMaxFreq)
	}
	// Churn lookups on 2 until the decay threshold trips at least twice.
	for i := 0; i < 2*8*(p.Len()+8)+2; i++ {
		p.Lookup(id(2))
	}
	if got := p.entries[e1].freq; got >= lfuMaxFreq {
		t.Fatalf("freq(1) = %d after decay, want < %d", got, lfuMaxFreq)
	}
	// The decayed counters still order victims: 1 decayed from the cap,
	// 2 kept earning touches, so 1 must now be the colder file.
	f1, f2 := p.entries[e1].freq, p.entries[p.slot(p.keys[id(2)])].freq
	if f1 >= f2 {
		t.Fatalf("decay did not reorder: freq(1)=%d >= freq(2)=%d", f1, f2)
	}
	if v := idOf(p, p.policy.victim()); v != id(1) {
		t.Fatalf("victim = %v, want the decayed file", v)
	}
}

// TestPrewarmPrefetch pins the predictive half of the prewarm policy: a
// highly-popular file evicted under pressure is remembered and re-admitted
// at the next diurnal trough, into free capacity only.
func TestPrewarmPrefetch(t *testing.T) {
	pol, _ := NewPolicy("prewarm")
	p := NewStoragePoolPolicy(100, 0, pol)

	p.AddBanded(id(1), 30, workload.BandHighlyPopular)
	p.AddBanded(id(2), 80, workload.BandUnpopular) // evicts 1 (LRU tail)
	if p.Contains(id(1)) || !p.Contains(id(2)) {
		t.Fatal("setup: expected 1 evicted, 2 resident")
	}
	p.AddBanded(id(3), 60, workload.BandUnpopular) // evicts 2; free = 40
	if p.Used() != 60 {
		t.Fatalf("used = %d, want 60", p.Used())
	}

	// Before the trough no prefetch runs.
	p.Tick(1 * time.Hour)
	if st := p.Stats(); st.Prefetches != 0 {
		t.Fatalf("prefetched %d files before the trough", st.Prefetches)
	}

	// At the trough the best ghost (highly popular 1, 30 bytes) fits the
	// 40 free bytes and returns; the unpopular 2 (80 bytes) does not fit
	// and must NOT evict anything to make room.
	p.Tick(5 * time.Hour)
	if !p.Contains(id(1)) {
		t.Fatal("trough prefetch did not re-admit the popular ghost")
	}
	if p.Contains(id(2)) {
		t.Fatal("prefetch admitted a ghost that does not fit")
	}
	if !p.Contains(id(3)) {
		t.Fatal("prefetch evicted a resident file")
	}
	st := p.Stats()
	if st.Prefetches != 1 || st.PrefetchBytes != 30 {
		t.Fatalf("prefetch stats = %d files / %d bytes, want 1 / 30", st.Prefetches, st.PrefetchBytes)
	}

	// One pass per trace day: the same day's later ticks are no-ops even
	// with ghosts pending.
	p.Tick(6 * time.Hour)
	if st := p.Stats(); st.Prefetches != 1 {
		t.Fatalf("second same-day tick ran a prefetch pass (%d)", st.Prefetches)
	}

	// Next day's trough fires again: drain the pool (the evictions feed
	// the ghost ring) and the pass refills free capacity best-first — the
	// highly-popular 1 and then 3 fit (90 of 100 bytes); 2 still does not.
	for p.evictOne() {
	}
	p.Tick(28 * time.Hour)
	if !p.Contains(id(1)) || !p.Contains(id(3)) {
		t.Fatal("next-day trough did not refill from the ghost ring")
	}
	if p.Contains(id(2)) {
		t.Fatal("next-day prefetch admitted a ghost past capacity")
	}
	if st := p.Stats(); st.Prefetches != 3 {
		t.Fatalf("prefetches = %d after two passes, want 3", st.Prefetches)
	}
}
