package distrib

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"odr/internal/obs"
	"odr/internal/replay"
)

// TestDistributedGolden pins a coordinated run's output across commits:
// the sha256 of the merged digest and of the merged metrics exposition
// (minus the scheduling-dependent in-flight gauge) for the two dynamic
// policies whose state is the largest — band and prewarm — and for static
// mode (no policy, "" in the table), all under a pool small enough to
// evict and naive faults at 0.3. Each window's pool counters are what it
// added to the state it restored, so they pin the observation state each
// window starts from, not only the tasks; the exposition literals were
// re-recorded when windows stopped re-counting their restored counters
// (TestDistributedMetricsMatchSingleProcess), the digests were not.
func TestDistributedGolden(t *testing.T) {
	tracePath := writeTrace(t, 90, 42)
	for _, tc := range []struct {
		policy             string
		digest, exposition string
	}{
		{"band",
			"17fd41fa549939f29860f4116b37278ccdadbd9a469ba318dca3a0bbc8794da1",
			"7dfcc515b39a5d594ab9eb3ba02cc9ff540076ff51935dc56cdb0ab83276c18e"},
		{"prewarm",
			"05e58a894bbef298e99647a7ae33a23059ecc027ffb7ba45e27228f6c1f391ba",
			"98c2b966fddad29d868cbd4d24004bf7275804cc32d1c1b756334483aa651f22"},
		{"",
			"e5aea567e8577ab672960fd3a344fb99ee4bddebf3933518d86caae120b5b663",
			"40d79c1b5fb3b4e4e8c5d2536e8fc4557ea722429bc34eacf903ac65906b3f32"},
	} {
		name := cmp.Or(tc.policy, "static")
		t.Run(name, func(t *testing.T) {
			spec := WorkerSpec{Seed: 42, Shards: 1, CachePolicy: tc.policy, PoolBytes: 64 << 20,
				Faults: "0.3", Metrics: true}
			co, err := New(Config{
				TracePath:     tracePath,
				Workers:       3,
				Windows:       5,
				CheckpointDir: t.TempDir(),
				Spec:          spec,
			})
			if err != nil {
				t.Fatal(err)
			}
			merged, err := co.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			snap := merged.Metrics.Snapshot()
			delete(snap.Gauges, replay.MetricInflightPeak)
			var prom bytes.Buffer
			if err := obs.WritePrometheus(&prom, snap); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct{ what, text, want string }{
				{"merged digest", merged.Digest(), tc.digest},
				{"merged metrics", prom.String(), tc.exposition},
			} {
				sum := sha256.Sum256([]byte(c.text))
				if got := hex.EncodeToString(sum[:]); got != c.want {
					t.Errorf("%s: %s sha256 = %s, want %s", name, c.what, got, c.want)
				}
			}
		})
	}
}
