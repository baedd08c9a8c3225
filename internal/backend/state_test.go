package backend

import (
	"bytes"
	"testing"

	"odr/internal/cloud"
	"odr/internal/workload"
)

// TestRestoreSetMatchesRestoreState: World.RestoreSet, which skips the
// warm fill under a cache policy, builds the cloud NewSet plus a restore of
// the same state builds — the same observation state and the same pool
// counters, at a restore and after observing the rest of the sample — in
// static mode and under every cache policy (pool squeezed to a twelfth of
// the population, so states carry evictions), at the first record, mid
// trace and the last. One world serves every restore of a mode, so each
// after the first reads slots earlier ones built.
func TestRestoreSetMatchesRestoreState(t *testing.T) {
	tr, err := workload.Generate(workload.DefaultConfig(300, 5))
	if err != nil {
		t.Fatal(err)
	}
	sample := tr.Requests[:min(600, len(tr.Requests))]
	census := workload.NewCensus()
	for _, r := range sample {
		census.Observe(r)
	}
	var pop int64
	for _, f := range tr.Files {
		pop += f.Size
	}
	type mode struct {
		name  string
		files []*workload.FileMeta
		cfg   cloud.Config
	}
	modes := []mode{{"static", census.Files(), cloud.DefaultConfig(float64(len(census.Files()))/cloud.FullScaleFiles, 5)}}
	for _, policy := range cloud.PolicyNames() {
		cfg := cloud.DefaultConfig(float64(len(tr.Files))/cloud.FullScaleFiles, 5)
		cfg.CachePolicy, cfg.PoolCapacity = policy, pop/12
		modes = append(modes, mode{policy, tr.Files, cfg})
	}
	for _, m := range modes {
		world := NewWorld(m.files, m.cfg, 5)
		for _, base := range []int{0, len(sample) / 2, len(sample) - 1, len(sample)} {
			head := NewSet(m.files, m.cfg, 5)
			head.Cloud.Prime(sample[:base])
			state, err := head.Cloud.AppendState(nil)
			if err != nil {
				t.Fatal(err)
			}
			filled := NewSet(m.files, m.cfg, 5)
			if err := filled.Cloud.restoreState(state, base); err != nil {
				t.Fatalf("%s at %d: %v", m.name, base, err)
			}
			restored, err := world.RestoreSet(state, base)
			if err != nil {
				t.Fatalf("%s at %d: %v", m.name, base, err)
			}
			for _, at := range []string{"restore", "end"} {
				a, err := filled.Cloud.AppendState(nil)
				if err != nil {
					t.Fatal(err)
				}
				b, err := restored.Cloud.AppendState(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("%s at %d, %s: RestoreSet's state differs from NewSet+restoreState's", m.name, base, at)
				}
				if a, b := filled.Cloud.PoolStats(), restored.Cloud.PoolStats(); a != b {
					t.Fatalf("%s at %d, %s: pool %+v after NewSet+restoreState, %+v after RestoreSet", m.name, base, at, a, b)
				}
				for i := base; i < len(sample); i++ {
					filled.Cloud.ObserveAt(i, sample[i].File, sample[i].Time)
					restored.Cloud.ObserveAt(i, sample[i].File, sample[i].Time)
				}
			}
		}
	}
}
