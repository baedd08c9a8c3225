package replay

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"odr/internal/backend"
	"odr/internal/faults"
	"odr/internal/obs"
	"odr/internal/trace"
	"odr/internal/workload"
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
	stress := stressRun(t, f.sample, f)
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
		// bench's replay-stress shape (stressOptions): band policy under
		// pressure, faults 0.25 with resilience, a registry and a 6 h
		// timeline. Pinned three ways: the digest, the Prometheus exposition
		// (pool stats and the end-of-run circuit gauge included), and the
		// timeline CSV. Recorded before per-replay ordinals replaced the
		// file- and user-keyed maps.
		{"odr/stress", func() string { return stress.digest },
			"5172170e9813b054c942ae9faa1b669d2ec5ce90abf47159e0d167869a885d4b"},
		{"odr/stress/metrics", func() string { return stress.metrics },
			"ee64fa169add1d000bcc2df678c7863fd8e1fb31c42a5572b2f5a2242947d456"},
		{"odr/stress/timeline", func() string { return stress.timeline },
			"856343b5b332a397d5627c513a2c70f5a82cba09e71e449dee2bb55a7b49ea87"},
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

// stressResult is one stress-shaped replay's three pinned outputs.
type stressResult struct {
	digest, metrics, timeline string
}

// stressOptions mirrors bench's replay-stress options over the fixture.
func stressOptions(f *fixture, reg *obs.Registry) Options {
	spec := faults.Preset(0.25)
	return Options{
		Seed:        14,
		Faults:      &spec,
		Resilience:  &backend.RetryPolicy{},
		CachePolicy: "band",
		PoolBytes:   fixturePopBytes(f) / 12,
		Metrics:     reg,
		Timeline:    &TimelineConfig{Window: 6 * time.Hour},
	}
}

// stressRun replays sample single-shard with stressOptions and renders
// its digest, its metrics exposition minus the scheduling-dependent
// in-flight gauge (outcomeSnapshot), and its timeline CSV.
func stressRun(t *testing.T, sample []workload.Request, f *fixture) stressResult {
	t.Helper()
	reg := obs.NewRegistry()
	o := stressOptions(f, reg)
	o.Shards = 1
	res := RunODR(sample, f.trace.Files, f.aps, o)
	var prom, csv bytes.Buffer
	if err := obs.WritePrometheus(&prom, outcomeSnapshot(reg)); err != nil {
		t.Fatal(err)
	}
	if err := WriteTimelineCSV(&csv, res.Timeline); err != nil {
		t.Fatal(err)
	}
	return stressResult{digest(res), prom.String(), csv.String()}
}

// edgeTrace is a bin trace past the fixture population's edges: every
// third record names a file absent from the population, and users carry
// sparse IDs (multiples of 1<<40, large primes' multiples, negatives), so
// a per-file or per-user table sized by the population or indexed by raw
// ID cannot hold them. Times are whole milliseconds, as bin stores them.
func edgeTrace(t *testing.T, f *fixture) []byte {
	t.Helper()
	const n = 3000
	users := make([]*workload.User, 97)
	for k := range users {
		u := *f.sample[k%len(f.sample)].User
		switch k % 3 {
		case 0:
			u.ID = (k + 1) << 40
		case 1:
			u.ID = k*1_000_003 + 7
		default:
			u.ID = -(k + 1) * 65_537
		}
		users[k] = &u
	}
	reqs := make([]workload.Request, n)
	for i := range reqs {
		base := f.sample[i%len(f.sample)]
		file := base.File
		if i%3 == 0 {
			nf := *file
			nf.ID[0] ^= 0xA5
			nf.ID[15] = byte(i)
			nf.ID[14] = byte(i >> 8)
			nf.SourceURL = fmt.Sprintf("http://edge.invalid/%d", i)
			file = &nf
		}
		reqs[i] = workload.Request{
			User: users[(i*7)%len(users)],
			File: file,
			Time: time.Duration(i) * 97 * time.Second,
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteWorkloadBinStream(&buf, workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayPopulationEdges replays edgeTrace at shards 1 and 4 — static,
// bench's stress shape, and a harsh breaker-tripping variant — against
// sha256s of the digest plus the metrics exposition (end-of-run circuit
// gauges included), recorded before per-replay ordinals. Run under -race
// it also proves the appended-ordinal slots are published before any
// worker reads them.
func TestReplayPopulationEdges(t *testing.T) {
	f := setup(t)
	bin := edgeTrace(t, f)
	// breakers trips circuits often: harsh transient faults, no retries,
	// two strikes to open.
	harsh := faults.Spec{Transient: 0.6, Stagnation: 0.3}
	breakers := stressOptions(f, nil)
	breakers.Faults = &harsh
	breakers.Resilience = &backend.RetryPolicy{MaxAttempts: 1, BreakerThreshold: 2}
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"static", Options{Seed: 14}, "4252996d046df1f92be97e310b6cd0295ec3ab331f9484fa9b42a774d81ce4cd"},
		{"stress", stressOptions(f, nil), "ab124455395a69ebc08b8e4c3a45ebbb60d64c0426c9ef5b2cc1be8d21f99fa6"},
		{"breakers", breakers, "29474101594e689105a02c476599e8cac3c63569b6250a58f1cce7b7687edcc5"},
	} {
		for _, shards := range []int{1, 4} {
			src, err := trace.StreamWorkload(bytes.NewReader(bin), "bin")
			if err != nil {
				t.Fatal(err)
			}
			o := tc.opts
			o.Shards = shards
			o.Metrics = obs.NewRegistry()
			res, err := RunODRStream(src, f.trace.Files, f.aps, o)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", tc.name, shards, err)
			}
			var out bytes.Buffer
			out.WriteString(digest(res))
			if err := obs.WritePrometheus(&out, outcomeSnapshot(o.Metrics)); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("%s shards=%d: digest+metrics sha256 = %s, want %s", tc.name, shards, got, tc.want)
			}
		}
	}
}
