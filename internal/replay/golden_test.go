package replay

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"odr/internal/backend"
	"odr/internal/faults"
)

// TestReplayGolden pins replay output across commits: each literal is the
// sha256 of the digest the slice engine produced for that configuration at
// the last commit that had one (PR 11, 7506720), over the shared fixture
// (20000 files, seed 515151, 1000-request Unicom sample) at replay seed 14.
// TestReplayDeterminism proves every shard count, chunk size, and input
// path agrees with the single-shard run; this table proves that run still
// produces the bytes it always did. A literal changes only with a
// deliberate, documented change to replay semantics.
func TestReplayGolden(t *testing.T) {
	f := setup(t)
	pressure := fixturePopBytes(f) / 12
	spec := faults.Preset(0.25)
	odr := func(o Options) func() string {
		return func() string {
			o.Seed, o.Shards = 14, 1
			return digest(RunODR(f.sample, f.trace.Files, f.aps, o))
		}
	}
	for _, tc := range []struct {
		name string
		run  func() string
		want string
	}{
		{"odr/static", odr(Options{}),
			"794315df55861cda046ad4fa9d67472b4a7ea3902bfdc257e8f500e5b7919a44"},
		{"odr/policy=lru", odr(Options{CachePolicy: "lru", PoolBytes: pressure}),
			"7067c5a1d264dd8446d9159045c01e53b73a9f5fb9bd0b8d9d4bc7203227a148"},
		{"odr/policy=lfu", odr(Options{CachePolicy: "lfu", PoolBytes: pressure}),
			"7067c5a1d264dd8446d9159045c01e53b73a9f5fb9bd0b8d9d4bc7203227a148"},
		{"odr/policy=band", odr(Options{CachePolicy: "band", PoolBytes: pressure}),
			"8567f7c439c85841af89f2160d216966ac67b84af7c72b980c192d90d9eed94a"},
		{"odr/policy=prewarm", odr(Options{CachePolicy: "prewarm", PoolBytes: pressure}),
			"1183b0e33e5b27542e493e0aac444c5716a217622a694b12f0d6259aeec36da3"},
		{"odr/faults=0.25/aware", odr(Options{Faults: &spec, Resilience: &backend.RetryPolicy{}}),
			"ab4eb39a27f8e351f62c31a51486bb83eff181476de46b29c00690f63b428e27"},
		{"odr/faults=0.25/naive", odr(Options{Faults: &spec}),
			"77af1db8637acb9cc44c3c0a0f8a1b758ada9fb465ffc540867ff00d7664acb5"},
		{"apbench", func() string { return apDigest(RunAPBenchmark(f.sample, f.aps, 14)) },
			"c38167e3d7417734a5346b1bd3eae85e19b91d84e8126efd790f700665b3556d"},
		{"hybrid", func() string { return digest(HybridBaseline(f.sample, f.trace.Files, f.aps, 14)) },
			"83c679f0b8b23233559700481801835139d11f4ca2d134c2ecd2202b4cc4c1d2"},
		{"cloud-only", func() string { return digest(CloudOnlyBaseline(f.sample, f.trace.Files, 14)) },
			"8c91efefa33c7844b12a5308dcc8510bb3d250e65d7ee67a09f15342a0789e35"},
	} {
		sum := sha256.Sum256([]byte(tc.run()))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: digest sha256 = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// fixturePopBytes is the fixture's total file-population size, the base
// the cache-policy cases squeeze the pool against.
func fixturePopBytes(f *fixture) int64 {
	var n int64
	for _, file := range f.trace.Files {
		n += file.Size
	}
	return n
}
