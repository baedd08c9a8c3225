package backend_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"odr/internal/backend"
	"odr/internal/backend/backendtest"
	"odr/internal/cloud"
	"odr/internal/core"
	"odr/internal/dist"
	"odr/internal/smartap"
	"odr/internal/workload"
)

const (
	fixtureSeed  = 424242
	fixtureFiles = 4000
	fixtureReqs  = 240
	envCap       = 2.5 * 1024 * 1024
)

var (
	fixOnce   sync.Once
	fixTrace  *workload.Trace
	fixSample []workload.Request
	fixAPs    []*smartap.AP
)

func fixture(t testing.TB) ([]workload.Request, []*workload.FileMeta, []*smartap.AP) {
	t.Helper()
	fixOnce.Do(func() {
		tr, err := workload.Generate(workload.DefaultConfig(fixtureFiles, fixtureSeed))
		if err != nil {
			t.Fatalf("generate trace: %v", err)
		}
		fixTrace = tr
		fixSample = workload.UnicomSample(tr, fixtureReqs, fixtureSeed)
		fixAPs = smartap.Benchmarked()
	})
	return fixSample, fixTrace.Files, fixAPs
}

// requests builds the scenario's request factory: the i-th request with a
// fresh index-keyed RNG substream on every call.
func requests(sample []workload.Request, aps []*smartap.AP) func(i int) *backend.Request {
	root := dist.NewRNG(fixtureSeed).Split("conformance")
	return func(i int) *backend.Request {
		return &backend.Request{
			Index:  i,
			User:   sample[i].User,
			File:   sample[i].File,
			AP:     aps[i%len(aps)],
			RNG:    root.Split64(uint64(i)),
			EnvCap: envCap,
		}
	}
}

// censusFiles is the sample's files in first-appearance order
// (workload.Census): the order a static cloud whose observation state is
// saved must be seeded in.
func censusFiles(sample []workload.Request) []*workload.FileMeta {
	c := workload.NewCensus()
	for _, r := range sample {
		c.Observe(r)
	}
	return c.Files()
}

func newSet(sample []workload.Request, files []*workload.FileMeta) *backend.Set {
	set := backend.NewSet(files, cloud.DefaultConfig(
		float64(len(files))/cloud.FullScaleFiles, fixtureSeed), fixtureSeed)
	set.Cloud.Prime(sample)
	return set
}

func TestCloudConformance(t *testing.T) {
	sample, files, aps := fixture(t)
	backendtest.Run(t, len(sample), func() backendtest.Instance {
		return backendtest.Instance{
			Backend: newSet(sample, files).Cloud,
			Request: requests(sample, aps),
		}
	})
}

func TestSmartAPConformance(t *testing.T) {
	sample, files, aps := fixture(t)
	backendtest.Run(t, len(sample), func() backendtest.Instance {
		return backendtest.Instance{
			Backend: newSet(sample, files).SmartAP,
			Request: requests(sample, aps),
		}
	})
}

func TestUserDeviceConformance(t *testing.T) {
	sample, files, aps := fixture(t)
	backendtest.Run(t, len(sample), func() backendtest.Instance {
		return backendtest.Instance{
			Backend: newSet(sample, files).UserDevice,
			Request: requests(sample, aps),
		}
	})
}

func TestCloudThenAPConformance(t *testing.T) {
	sample, files, aps := fixture(t)
	backendtest.Run(t, len(sample), func() backendtest.Instance {
		return backendtest.Instance{
			Backend: newSet(sample, files).CloudThenAP,
			Request: requests(sample, aps),
		}
	})
}

// TestSetResolvesEveryRoute pins the Decision→Backend mapping: every
// route the decision procedure can emit resolves, and the pre-download
// route lands on the cloud (the machine that acts before the user is
// told to ask again).
func TestSetResolvesEveryRoute(t *testing.T) {
	sample, files, aps := fixture(t)
	_ = aps
	set := newSet(sample, files)
	cases := []struct {
		route core.Route
		want  backend.Backend
	}{
		{core.RouteUserDevice, set.UserDevice},
		{core.RouteSmartAP, set.SmartAP},
		{core.RouteCloud, set.Cloud},
		{core.RouteCloudPreDownload, set.Cloud},
		{core.RouteCloudThenAP, set.CloudThenAP},
	}
	for _, c := range cases {
		got, err := set.ForRoute(c.route)
		if err != nil {
			t.Fatalf("ForRoute(%v): %v", c.route, err)
		}
		if got != c.want {
			t.Errorf("ForRoute(%v) = %s, want %s", c.route, got.Name(), c.want.Name())
		}
		if set.Resolve(core.Decision{Route: c.route}) != got {
			t.Errorf("Resolve(%v) disagrees with ForRoute", c.route)
		}
		if name := backend.NameForRoute(c.route); name != c.want.Name() {
			t.Errorf("NameForRoute(%v) = %q, want %q", c.route, name, c.want.Name())
		}
	}
	if _, err := set.ForRoute(core.Route(99)); err == nil {
		t.Error("ForRoute(99) should fail")
	}
	if got := len(set.All()); got != 4 {
		t.Errorf("All() returned %d backends, want 4", got)
	}
}

// TestCloudThenAPSharesCloudState verifies the composite backend charges
// the shared cloud ledger and sees the same cache as the cloud backend.
func TestCloudThenAPSharesCloudState(t *testing.T) {
	sample, files, aps := fixture(t)
	set := newSet(sample, files)
	reqs := requests(sample, aps)
	for i := 0; i < len(sample); i++ {
		if set.CloudThenAP.Probe(reqs(i)) != set.Cloud.Probe(reqs(i)) {
			t.Fatalf("request %d: composite and cloud probes disagree", i)
		}
	}
	before := set.Cloud.Ledger().BytesOut()
	pre := set.CloudThenAP.PreDownload(reqs(0))
	if !pre.OK {
		t.Fatal("cloud→AP pull cannot fail")
	}
	gained := set.Cloud.Ledger().BytesOut() - before
	if gained != sample[0].File.Size {
		t.Errorf("cloud ledger gained %d bytes, want the file's %d", gained, sample[0].File.Size)
	}
}

// TestCloudStagnationTimeoutFromConfig pins the satellite fix: a failed
// cloud pre-download charges the configured stagnation timeout, not a
// hardcoded hour.
func TestCloudStagnationTimeoutFromConfig(t *testing.T) {
	sample, files, _ := fixture(t)
	cfg := cloud.DefaultConfig(float64(len(files))/cloud.FullScaleFiles, fixtureSeed)
	cfg.StagnationTimeout = cfg.StagnationTimeout / 4
	c := backend.NewCloud(files, cfg, fixtureSeed)
	c.Prime(sample)
	root := dist.NewRNG(fixtureSeed).Split("conformance")
	sawFailure := false
	for i := range sample {
		req := &backend.Request{
			Index: i, User: sample[i].User, File: sample[i].File,
			RNG: root.Split64(uint64(i)), EnvCap: envCap,
		}
		if pre := c.PreDownload(req); !pre.OK {
			sawFailure = true
			if pre.Delay != cfg.StagnationTimeout {
				t.Fatalf("request %d: failure delay %v, want configured %v", i, pre.Delay, cfg.StagnationTimeout)
			}
		}
	}
	if !sawFailure {
		t.Skip("no cloud pre-download failures in fixture; widen the sample")
	}
}

// newDynamicSet is newSet with the cloud in dynamic mode: the band policy
// on a pool squeezed to a twelfth of the population's bytes.
func newDynamicSet(prime []workload.Request, files []*workload.FileMeta) *backend.Set {
	var pop int64
	for _, f := range files {
		pop += f.Size
	}
	cfg := cloud.DefaultConfig(float64(len(files))/cloud.FullScaleFiles, fixtureSeed)
	cfg.CachePolicy = "band"
	cfg.PoolCapacity = pop / 12
	set := backend.NewSet(files, cfg, fixtureSeed)
	set.Cloud.Prime(prime)
	return set
}

// TestCloudDynamicConformance runs the conformance suite — its concurrent
// arm included — against the policy-driven cloud, with requests that
// carry no ordinals: every probe and pre-download goes through the locked
// resolve-by-ID step, which must be race-free under -race. Only the first
// half of the sample is primed, so the concurrent arm also builds the
// slots of files it meets first.
func TestCloudDynamicConformance(t *testing.T) {
	sample, files, aps := fixture(t)
	backendtest.Run(t, len(sample), func() backendtest.Instance {
		return backendtest.Instance{
			Backend: newDynamicSet(sample[:len(sample)/2], files).Cloud,
			Request: requests(sample, aps),
		}
	})
}

// TestResilientConformance runs the conformance suite against the cloud
// route of a resilience-wrapped fleet. Requests carry no ordinals, so the
// wrapper resolves each user by ID through the fleet's shared Population,
// growing its breaker table as users arrive, while the cloud resolves
// files through the same one (half of them unprimed, as above).
func TestResilientConformance(t *testing.T) {
	sample, files, aps := fixture(t)
	backendtest.Run(t, len(sample), func() backendtest.Instance {
		fleet, _ := backend.WrapResilient(backend.NewFleet(newSet(sample[:len(sample)/2], files)),
			backend.RetryPolicy{}, nil)
		return backendtest.Instance{
			Backend: fleet.For(core.RouteCloud),
			Request: requests(sample, aps),
		}
	})
}

// TestPrimeIdempotent pins Prime's contract: priming a sample twice
// answers Probe and PreDownload exactly as priming it once, in static and
// dynamic mode.
func TestPrimeIdempotent(t *testing.T) {
	sample, files, aps := fixture(t)
	for _, mode := range []struct {
		name string
		set  func() *backend.Set
	}{
		{"static", func() *backend.Set { return newSet(sample, files) }},
		{"dynamic", func() *backend.Set { return newDynamicSet(sample, files) }},
	} {
		once, twice := mode.set().Cloud, mode.set().Cloud
		twice.Prime(sample)
		reqs := requests(sample, aps)
		hits := 0
		for i := range sample {
			a, b := once.Probe(reqs(i)), twice.Probe(reqs(i))
			if a != b {
				t.Fatalf("%s: request %d: probe %v after one Prime, %v after two", mode.name, i, a, b)
			}
			if a {
				hits++
			}
			if a, b := once.PreDownload(reqs(i)), twice.PreDownload(reqs(i)); a != b {
				t.Fatalf("%s: request %d: pre-download %+v after one Prime, %+v after two", mode.name, i, a, b)
			}
		}
		if hits == 0 || hits == len(sample) {
			t.Fatalf("%s: %d of %d probes hit; the fixture no longer separates cached from uncached", mode.name, hits, len(sample))
		}
	}
}

// TestStaticProbeFirstIndexOracle pins static mode's cache rule against
// an oracle written out here: request i finds its file cached when the
// file is in the warm pool, or when a strictly earlier request named the
// file and the file's single pre-download succeeded. Each trial draws a
// sample with repeats from the fixture, primes it up to a random cut, then
// primes it whole; an index not yet observed answers false.
func TestStaticProbeFirstIndexOracle(t *testing.T) {
	pool, files, aps := fixture(t)
	rng := dist.NewRNG(fixtureSeed).Split("oracle")
	// outcomes is a separate cloud, so the oracle's pre-downloads never
	// touch the cloud under test.
	outcomes := newSet(nil, files).Cloud
	fetched, missed := 0, 0 // hits only a pre-download explains; misses
	for trial := 0; trial < 20; trial++ {
		sample := make([]workload.Request, 1+rng.Intn(2*len(pool)))
		for i := range sample {
			sample[i] = pool[rng.Intn(len(pool)/4)]
		}
		reqs := requests(sample, aps)
		first := map[workload.FileID]int{}
		want := make([]bool, len(sample))
		for i, r := range sample {
			f, seen := first[r.File.ID]
			if !seen {
				first[r.File.ID] = i
			}
			warm := backend.PoolHolds(outcomes, r.File.ID)
			want[i] = warm || (seen && f < i && outcomes.PreDownload(reqs(i)).OK)
			if want[i] && !warm {
				fetched++
			} else if !want[i] {
				missed++
			}
		}
		c := newSet(nil, files).Cloud
		cut := rng.Intn(len(sample) + 1)
		for _, primed := range []int{cut, len(sample)} {
			c.Prime(sample[:primed])
			for i := range sample {
				if got := c.Probe(reqs(i)); got != (i < primed && want[i]) {
					t.Fatalf("trial %d, primed %d of %d: request %d probes %v, oracle %v", trial, primed, len(sample), i, got, want[i])
				}
			}
		}
	}
	if fetched == 0 || missed == 0 {
		t.Fatalf("%d pre-download hits and %d misses; the samples no longer exercise the rule", fetched, missed)
	}
}

// TestCloudStateRestoreMatchesUninterrupted: a cloud that restores
// another's observation state at a cut and observes the rest answers every
// request after the cut — probe verdict and pre-download outcome — exactly
// as the uninterrupted cloud does, and ends with the same pool, in static
// mode and under every cache policy (pool squeezed to a twelfth of the
// population, so the state carries evictions). The static cloud is seeded
// with the sample's files in first-appearance order, as a census seeds it.
func TestCloudStateRestoreMatchesUninterrupted(t *testing.T) {
	sample, allFiles, aps := fixture(t)
	type mode struct {
		cfg   cloud.Config
		files []*workload.FileMeta
	}
	census := censusFiles(sample)
	modes := map[string]mode{"static": {newSet(nil, census).Cloud.Config(), census}}
	for _, policy := range cloud.PolicyNames() {
		cfg := newDynamicSet(nil, allFiles).Cloud.Config()
		cfg.CachePolicy = policy
		modes[policy] = mode{cfg, allFiles}
	}
	rng := dist.NewRNG(fixtureSeed).Split("cuts")
	for name, mode := range modes {
		cfg, files := mode.cfg, mode.files
		world := backend.NewWorld(files, cfg, fixtureSeed)
		// observe builds a cloud for the sample, restores state at base over
		// the mode's one world when given one, and observes sample[base:end]
		// through ordinals.
		observe := func(state []byte, base, end int) (*backend.Cloud, []backend.Ordinal) {
			set := backend.NewSet(files, cfg, fixtureSeed)
			if state != nil {
				var err error
				if set, err = world.RestoreSet(state, base); err != nil {
					t.Fatalf("%s: restore at %d: %v", name, base, err)
				}
			}
			set.Reserve(len(sample))
			ords := make([]backend.Ordinal, len(sample))
			for i := base; i < end; i++ {
				ords[i], _ = set.Population().Resolve(sample[i])
				set.Cloud.ObserveOrdinal(i, ords[i], sample[i].File, sample[i].Time)
			}
			return set.Cloud, ords
		}
		whole, ords := observe(nil, 0, len(sample))
		for _, cut := range []int{0, 1, rng.Intn(len(sample)), len(sample)} {
			head, _ := observe(nil, 0, cut)
			state, err := head.AppendState(nil)
			if err != nil {
				t.Fatalf("%s: state at %d: %v", name, cut, err)
			}
			tail, _ := observe(state, cut, len(sample))
			reqs := requests(sample, aps)
			for i := cut; i < len(sample); i++ {
				req := reqs(i)
				req.FileOrd = ords[i]
				if a, b := whole.Probe(req), tail.Probe(req); a != b {
					t.Fatalf("%s cut %d: request %d: probe %v uninterrupted, %v restored", name, cut, i, a, b)
				}
				if a, b := whole.PreDownload(req), tail.PreDownload(req); a != b {
					t.Fatalf("%s cut %d: request %d: pre-download %+v uninterrupted, %+v restored", name, cut, i, a, b)
				}
			}
			if a, b := whole.PoolStats(), tail.PoolStats(); a != b {
				t.Fatalf("%s cut %d: pool %+v uninterrupted, %+v restored", name, cut, a, b)
			}
			for _, f := range files {
				if backend.PoolHolds(whole, f.ID) != backend.PoolHolds(tail, f.ID) {
					t.Fatalf("%s cut %d: pools disagree on %v", name, cut, f.ID)
				}
			}
		}
	}
}

// TestCloudStateRejectsMismatch: a state restores only into a cloud of its
// own mode, at its own base, naming only files the cloud was seeded with
// (a band pool names each by seeded ordinal), and only in the layout
// AppendState writes; a static cloud whose observed files are not a prefix
// of its seed has no state to write.
func TestCloudStateRejectsMismatch(t *testing.T) {
	sample, files, _ := fixture(t)
	census := censusFiles(sample)
	staticState, err := newSet(sample, census).Cloud.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	dynamicState, err := newDynamicSet(sample, files).Cloud.AppendState(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The static layout is the mode byte, the next request, then the count
	// of observed files.
	withCount := func(k uint64) []byte {
		return binary.LittleEndian.AppendUint64(append([]byte(nil), staticState[:9]...), k)
	}
	// The earlier static layout: mode 's', the next request, then a bitmap
	// over the seeded files with every observed file's bit set.
	bitmap := append([]byte{'s'}, staticState[1:9]...)
	for range (len(census) + 7) / 8 {
		bitmap = append(bitmap, 0xff)
	}
	bitmap[len(bitmap)-1] >>= (8 - len(census)%8) % 8
	// A cloud to restore into: its files and configuration.
	type into struct {
		files []*workload.FileMeta
		cfg   cloud.Config
	}
	static := into{census, newSet(nil, census).Cloud.Config()}
	dynamic := into{files, newDynamicSet(nil, files).Cloud.Config()}
	for _, tc := range []struct {
		name  string
		into  into
		state []byte
		base  int
		want  string
	}{
		{"static into dynamic", dynamic, staticState, len(sample), "does not fit"},
		{"dynamic into static", static, dynamicState, len(sample), "does not fit"},
		{"dynamic at another base", dynamic, dynamicState, len(sample) - 1, "want"},
		{"dynamic naming a file past the seeded files", into{files[:len(files)/2], dynamic.cfg}, dynamicState, len(sample),
			fmt.Sprintf(", outside the owner's %d", len(files)/2)},
		{"static before its last request", static, staticState, 1, "want"},
		{"empty", static, nil, 0, "empty"},
		{"truncated", static, staticState[:len(staticState)-1], len(sample), "truncated"},
		{"count past the seeded files", static, withCount(uint64(len(census) + 1)), len(sample), "past the"},
		{"a byte after the count", static, append(withCount(uint64(len(census))), 0), len(sample), "1 bytes after"},
		{"the retired bitmap layout", static, bitmap, len(sample), "bitmap layout"},
	} {
		if _, err := backend.NewWorld(tc.into.files, tc.into.cfg, fixtureSeed).RestoreSet(tc.state, tc.base); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RestoreSet = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// Seeded with every file, the sample's files leave gaps.
	if _, err := newSet(sample, files).Cloud.AppendState(nil); err == nil || !strings.Contains(err.Error(), "not a prefix") {
		t.Errorf("AppendState on a cloud seeded out of first-appearance order = %v, want an error naming the gap", err)
	}
}

// TestCloudOrdinalsMatchByID proves the two ways into the cloud agree:
// observing through Population ordinals (the replay engine's reader) and
// probing with ordinals set answers exactly what Prime and ordinal-less
// requests answer, in static and dynamic mode.
func TestCloudOrdinalsMatchByID(t *testing.T) {
	sample, files, aps := fixture(t)
	for _, mode := range []struct {
		name string
		set  func() *backend.Set
	}{
		{"static", func() *backend.Set { return newSet(sample, files) }},
		{"dynamic", func() *backend.Set { return newDynamicSet(sample, files) }},
	} {
		byID := mode.set().Cloud
		// The same construction, observed through ordinals instead of Prime.
		cfg := byID.Config()
		ords := backend.NewSet(files, cfg, fixtureSeed)
		ords.Reserve(len(sample))
		pop := ords.Population()
		fileOrd := make([]backend.Ordinal, len(sample))
		userOrd := make([]backend.Ordinal, len(sample))
		for i, r := range sample {
			fileOrd[i], userOrd[i] = pop.Resolve(r)
			ords.Cloud.ObserveOrdinal(i, fileOrd[i], r.File, r.Time)
		}
		reqs := requests(sample, aps)
		for i := range sample {
			req := reqs(i)
			req.FileOrd, req.UserOrd = fileOrd[i], userOrd[i]
			if a, b := byID.Probe(reqs(i)), ords.Cloud.Probe(req); a != b {
				t.Fatalf("%s: request %d: probe %v by ID, %v by ordinal", mode.name, i, a, b)
			}
			if a, b := byID.PreDownload(reqs(i)), ords.Cloud.PreDownload(req); a != b {
				t.Fatalf("%s: request %d: pre-download %+v by ID, %+v by ordinal", mode.name, i, a, b)
			}
			if pop.Band(fileOrd[i]) != sample[i].File.Band() {
				t.Fatalf("%s: request %d: population band %v, file band %v", mode.name, i, pop.Band(fileOrd[i]), sample[i].File.Band())
			}
		}
	}
}
