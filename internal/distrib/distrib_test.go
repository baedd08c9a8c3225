package distrib

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odr/internal/backend"
	"odr/internal/cloud"
	"odr/internal/core"
	"odr/internal/obs"
	"odr/internal/replay"
	"odr/internal/smartap"
	"odr/internal/trace"
	"odr/internal/workload"
)

// writeTrace generates a small synthetic week and writes it as a bin
// trace file, returning its path.
func writeTrace(t *testing.T, files int, seed uint64) string {
	t.Helper()
	st, err := workload.GenerateStream(workload.DefaultConfig(files, seed), 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	if err := trace.WriteWorkloadBinStream(bw, st.Requests()); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// openBin opens a trace for the rest of the test.
func openBin(t *testing.T, tracePath string) *trace.Bin {
	t.Helper()
	bin, err := trace.OpenBin(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bin.Close() })
	return bin
}

// singleDigest is the single-process reference digest for a trace/spec.
func singleDigest(t *testing.T, tracePath string, spec WorkerSpec) string {
	t.Helper()
	res, err := SingleProcess(tracePath, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Digest()
}

func TestPlanWindows(t *testing.T) {
	cases := []struct {
		total int64
		n     int
		wantN int
	}{
		{total: 10, n: 3, wantN: 3},
		{total: 10, n: 1, wantN: 1},
		{total: 10, n: 10, wantN: 10},
		{total: 3, n: 7, wantN: 3},  // clamped to total
		{total: 10, n: 0, wantN: 1}, // clamped to 1
		{total: 10, n: -2, wantN: 1},
		{total: 1, n: 1, wantN: 1},
		{total: 1_000_003, n: 16, wantN: 16},
	}
	for _, c := range cases {
		wins := PlanWindows(c.total, c.n)
		if len(wins) != c.wantN {
			t.Fatalf("PlanWindows(%d, %d): %d windows, want %d", c.total, c.n, len(wins), c.wantN)
		}
		var next, min, max int64
		min, max = c.total, 0
		for i, w := range wins {
			if w.Offset != next {
				t.Fatalf("PlanWindows(%d, %d): window %d at offset %d, want %d", c.total, c.n, i, w.Offset, next)
			}
			if w.Limit <= 0 {
				t.Fatalf("PlanWindows(%d, %d): window %d has limit %d", c.total, c.n, i, w.Limit)
			}
			if w.Limit < min {
				min = w.Limit
			}
			if w.Limit > max {
				max = w.Limit
			}
			next = w.End()
		}
		if next != c.total {
			t.Fatalf("PlanWindows(%d, %d): windows end at %d, want %d", c.total, c.n, next, c.total)
		}
		if max-min > 1 {
			t.Fatalf("PlanWindows(%d, %d): window limits range [%d, %d], want spread <= 1", c.total, c.n, min, max)
		}
	}
	if wins := PlanWindows(0, 4); wins != nil {
		t.Fatalf("PlanWindows(0, 4) = %v, want nil", wins)
	}
}

func TestWorkerSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec WorkerSpec
		want string // error substring; empty = valid
	}{
		{name: "zero", spec: WorkerSpec{}},
		{name: "full", spec: WorkerSpec{Seed: 7, Shards: 4, CachePolicy: "band", PoolBytes: 1 << 30, Faults: "0.3", Metrics: true}},
		{name: "negative shards", spec: WorkerSpec{Shards: -1}, want: "negative shards"},
		{name: "negative pool", spec: WorkerSpec{PoolBytes: -1}, want: "negative pool"},
		{name: "unknown policy", spec: WorkerSpec{CachePolicy: "clock"}, want: "unknown cache policy"},
		{name: "bad faults", spec: WorkerSpec{Faults: "definitely-not-a-spec"}, want: "faults"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, c.want)
			}
		})
	}
}

func TestWorkerSpecFingerprint(t *testing.T) {
	a := WorkerSpec{Seed: 1, CachePolicy: "band"}
	if a.Fingerprint() != (WorkerSpec{Seed: 1, CachePolicy: "band"}).Fingerprint() {
		t.Fatal("equal specs fingerprint differently")
	}
	if a.Fingerprint() == (WorkerSpec{Seed: 2, CachePolicy: "band"}).Fingerprint() {
		t.Fatal("different specs share a fingerprint")
	}
	if a.Fingerprint() != (WorkerSpec{Seed: 1, CachePolicy: "band", Shards: 3}).Fingerprint() {
		t.Fatal("the shard count, which changes no result, changes the fingerprint")
	}
}

// TestManifestValidate pins that every class of checkpoint corruption is
// rejected with an error naming the offending field.
func TestManifestValidate(t *testing.T) {
	valid := func() *Manifest {
		return NewManifest("trace.bin", strings.Repeat("ab", 32), 100, WorkerSpec{Seed: 3}, 4)
	}
	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   string
	}{
		{"wrong version", func(m *Manifest) { m.Version = 99 }, "manifest: version"},
		{"zero records", func(m *Manifest) { m.Records = 0 }, "manifest: records"},
		{"short hash", func(m *Manifest) { m.TraceSHA256 = "abcd" }, "manifest: trace_sha256"},
		{"bad spec", func(m *Manifest) { m.Spec.Shards = -3 }, "manifest: spec"},
		{"no windows", func(m *Manifest) { m.Windows = nil }, "manifest: windows"},
		{"offset gap", func(m *Manifest) { m.Windows[2].Offset++ }, "windows[2].offset"},
		{"zero limit", func(m *Manifest) { m.Windows[0].Limit = 0 }, "windows[0].limit"},
		{"bad state", func(m *Manifest) { m.Windows[1].State = "running" }, "windows[1].state"},
		{"done without partial", func(m *Manifest) { m.Windows[3].State = StateDone }, "windows[3].partial"},
		{"negative attempts", func(m *Manifest) { m.Windows[1].Attempts = -1 }, "windows[1].attempts"},
		{"short tiling", func(m *Manifest) { m.Windows = m.Windows[:3] }, "end at record"},
		{"limit past the trace", func(m *Manifest) { m.Windows[3].Limit++ }, "windows[3].limit"},
		{"limits that wrap int64 back onto the trace", func(m *Manifest) {
			m.Windows = []ManifestWindow{
				{Offset: 0, Limit: math.MaxInt64, State: StatePending},
				{Offset: math.MaxInt64, Limit: math.MaxInt64, State: StatePending},
				{Offset: -2, Limit: 102, State: StatePending},
			}
		}, "windows[0].limit"},
		{"partial outside the checkpoint dir", func(m *Manifest) {
			m.Windows[1].State, m.Windows[1].Partial = StateDone, "../window-00001.odrp"
		}, "windows[1].partial"},
		{"absolute partial", func(m *Manifest) {
			m.Windows[1].State, m.Windows[1].Partial = StateDone, "/etc/passwd"
		}, "windows[1].partial"},
		{"partial naming the parent dir", func(m *Manifest) {
			m.Windows[1].State, m.Windows[1].Partial = StateDone, ".."
		}, "windows[1].partial"},
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("fresh manifest invalid: %v", err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := valid()
			c.mutate(m)
			err := m.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want error naming %q", err, c.want)
			}
		})
	}
}

func TestManifestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	m := NewManifest("trace.bin", strings.Repeat("cd", 32), 57, WorkerSpec{Seed: 11, CachePolicy: "lfu"}, 3)
	m.Windows[0].State = StateDone
	m.Windows[0].Partial = "window-00000.odrp"
	m.Windows[0].Attempts = 2
	m.Windows[0].Seconds = 1.5
	if err := SaveManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceSHA256 != m.TraceSHA256 || got.Records != m.Records ||
		got.Spec.Fingerprint() != m.Spec.Fingerprint() || len(got.Windows) != len(m.Windows) ||
		got.Windows[0] != m.Windows[0] || got.Done() != 1 {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}

	// Saving an invalid manifest must refuse before touching the file.
	bad := NewManifest("trace.bin", "short", 57, WorkerSpec{}, 3)
	if err := SaveManifest(path, bad); err == nil {
		t.Fatal("SaveManifest accepted an invalid manifest")
	}
	if _, err := LoadManifest(path); err != nil {
		t.Fatalf("failed save clobbered the checkpoint: %v", err)
	}

	// Corrupt JSON is rejected with the path in the error.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("LoadManifest(corrupt) = %v, want parse error naming %s", err, path)
	}
	if _, err := LoadManifest(filepath.Join(dir, "absent.json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("LoadManifest(absent) = %v, want ErrNotExist", err)
	}
}

// TestPartialRoundTrip replays one window, writes the partial, reads it
// back, and checks the reconstruction is digest-exact; then corrupts the
// file every way the format guards against.
func TestPartialRoundTrip(t *testing.T) {
	tracePath := writeTrace(t, 60, 9)
	records := openBin(t, tracePath).Census().Records
	spec := WorkerSpec{Seed: 9, CachePolicy: "band", Faults: "0.3", Metrics: true}
	win := Window{Offset: records / 3, Limit: records / 3}
	dir := t.TempDir()
	path := filepath.Join(dir, "w.odrp")
	req := WorkerRequest{TracePath: tracePath, Window: win, Spec: spec, PartialPath: path}
	if err := RunWorker(context.Background(), req, nil); err != nil {
		t.Fatal(err)
	}
	p1, err := ReadPartial(path)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Window != win || int64(len(p1.Tasks)) != win.Limit || p1.Spec != spec.Fingerprint() {
		t.Fatalf("partial header mismatch: %+v", p1)
	}
	if p1.Metrics == nil {
		t.Fatal("metrics snapshot missing from partial")
	}
	if p1.Totals.Tasks != win.Limit {
		t.Fatalf("partial totals %d tasks, want %d", p1.Totals.Tasks, win.Limit)
	}

	// A second independent worker run reconstructs the same bytes.
	path2 := filepath.Join(dir, "w2.odrp")
	req.PartialPath = path2
	if err := RunWorker(context.Background(), req, nil); err != nil {
		t.Fatal(err)
	}
	p2, err := ReadPartial(path2)
	if err != nil {
		t.Fatal(err)
	}
	d1 := replay.DigestOf([][]replay.DigestRecord{p1.Tasks}, p1.Ledgers, p1.Totals)
	d2 := replay.DigestOf([][]replay.DigestRecord{p2.Tasks}, p2.Ledgers, p2.Totals)
	if d1 != d2 {
		t.Fatal("independent worker runs of the same window produced different partials")
	}

	corrupt := func(name string, mutate func([]byte) []byte, want string) {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := filepath.Join(dir, name+".odrp")
			if err := os.WriteFile(bad, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadPartial(bad); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("ReadPartial = %v, want error containing %q", err, want)
			}
		})
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "magic")
	corrupt("bad version", func(b []byte) []byte { b[4] = 99; return b }, "version")
	corrupt("flipped byte", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b }, "checksum")
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)-9] }, "overruns")
	corrupt("too short", func(b []byte) []byte { return b[:10] }, "too short")
}

func TestMergePartialsEmpty(t *testing.T) {
	if _, err := MergePartials(nil); err == nil {
		t.Fatal("MergePartials(nil) accepted")
	}
}

// TestDistributedDigestMatchesSingleProcess is the heart of the package:
// for the static pool and every cache policy, with and without naive
// faults, the coordinator's merged digest must be byte-identical to the
// single-process reference (SingleProcess, the base-0 window), and both
// to the trace replayed whole by replay.RunODRStream over the census —
// the stream reader and Population.Resolve's per-record ID check, a path
// no window takes. With metrics on, the reference's registry is the
// stream's, less the in-flight peak. The policies run under a pool small
// enough to evict, over a week that crosses prewarm's 04:00 trough, so
// every window starts from a pool its predecessors' evictions and
// prefetches shaped.
func TestDistributedDigestMatchesSingleProcess(t *testing.T) {
	specs := []struct {
		name string
		spec WorkerSpec
	}{
		{"static", WorkerSpec{Seed: 42}},
		{"naive faults", WorkerSpec{Seed: 42, Faults: "0.3"}},
		{"metrics on", WorkerSpec{Seed: 42, Metrics: true, Shards: 2}},
	}
	for _, policy := range cloud.PolicyNames() {
		specs = append(specs, struct {
			name string
			spec WorkerSpec
		}{"dynamic " + policy + " policy", WorkerSpec{Seed: 42, CachePolicy: policy, PoolBytes: 64 << 20, Metrics: true}})
	}
	tracePath := writeTrace(t, 90, 42)
	bin := openBin(t, tracePath)
	for _, c := range specs {
		t.Run(c.name, func(t *testing.T) {
			var reg *obs.Registry
			if c.spec.Metrics {
				reg = obs.NewRegistry()
			}
			opts, err := c.spec.ReplayOptions(reg)
			if err != nil {
				t.Fatal(err)
			}
			full, err := bin.Window(0, -1)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := replay.RunODRStream(full, bin.Census().Files, smartap.Benchmarked(), opts)
			if err != nil {
				t.Fatal(err)
			}
			want := stream.Digest()
			ref, err := SingleProcess(tracePath, c.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := ref.Digest(); got != want {
				t.Fatalf("single-process digest differs from the stream replay's:\n got %s\nwant %s", got, want)
			}
			if reg != nil {
				want, got := reg.Snapshot(), ref.Metrics.Snapshot()
				for _, s := range []*obs.Snapshot{want, got} {
					delete(s.Gauges, replay.MetricInflightPeak)
				}
				if diff := snapshotDiff(got, want); diff != "" {
					t.Fatalf("single-process metrics differ from the stream replay's:\n%s", diff)
				}
			}
			co, err := New(Config{
				TracePath:     tracePath,
				Workers:       3,
				Windows:       5,
				CheckpointDir: t.TempDir(),
				Spec:          c.spec,
				Log:           t.Logf,
			})
			if err != nil {
				t.Fatal(err)
			}
			merged, err := co.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := merged.Digest(); got != want {
				t.Fatalf("merged digest differs from single-process digest:\n got %s\nwant %s", got, want)
			}
			if len(merged.Parts) != 5 {
				t.Fatalf("merged %d partials, want 5 windows", len(merged.Parts))
			}
			if c.spec.Metrics && merged.Metrics == nil {
				t.Fatal("metrics requested but merged registry is nil")
			}
			if merged.CloudBytes() <= 0 {
				t.Fatal("merged cloud ledger reports no upload bytes")
			}
			if fr := merged.FailureRatio(); fr < 0 || fr > 1 {
				t.Fatalf("merged failure ratio %v out of range", fr)
			}
			if p := c.spec.CachePolicy; p != "" {
				counters := merged.Metrics.Snapshot().Counters
				if counters[obs.Label(replay.MetricPoolEvictions, "policy", p)] == 0 {
					t.Fatalf("%s pool never evicted; the test no longer exercises eviction state", p)
				}
				if p == "prewarm" && counters[obs.Label(replay.MetricPoolPrefetches, "policy", p)] == 0 {
					t.Fatal("prewarm never prefetched; the trace no longer crosses its trough")
				}
			}
		})
	}
}

// TestDistributedMetricsMatchSingleProcess: the coordinator's merged
// registry is the registry a single process records over the same trace,
// for static mode and every cache policy. Each window adds only what
// happened inside it — the pool counters it records are the change since
// its restored state — and the pool's level gauges come from the window
// that ends the trace. The in-flight peak is a scheduling signal of each
// process's engine and sits outside the comparison.
func TestDistributedMetricsMatchSingleProcess(t *testing.T) {
	tracePath := writeTrace(t, 90, 42)
	for _, policy := range append([]string{""}, cloud.PolicyNames()...) {
		name := cmp.Or(policy, "static")
		t.Run(name, func(t *testing.T) {
			spec := WorkerSpec{Seed: 42, CachePolicy: policy, PoolBytes: 64 << 20, Faults: "0.3", Metrics: true}
			co, err := New(Config{
				TracePath:     tracePath,
				Workers:       3,
				Windows:       8,
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
			reg := obs.NewRegistry()
			opts, err := spec.ReplayOptions(reg)
			if err != nil {
				t.Fatal(err)
			}
			bin := openBin(t, tracePath)
			full, err := bin.Window(0, -1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := replay.RunODRStream(full, bin.Census().Files, smartap.Benchmarked(), opts); err != nil {
				t.Fatal(err)
			}
			want, got := reg.Snapshot(), merged.Metrics.Snapshot()
			for _, s := range []*obs.Snapshot{want, got} {
				delete(s.Gauges, replay.MetricInflightPeak)
			}
			if diff := snapshotDiff(got, want); diff != "" {
				t.Fatalf("merged metrics differ from the single-process registry:\n%s", diff)
			}
		})
	}
}

// snapshotDiff lists the counters, gauges and histograms on which two
// snapshots disagree, one per line ("" when they are equal).
func snapshotDiff(got, want *obs.Snapshot) string {
	var out []string
	for _, name := range unionKeys(got.Counters, want.Counters) {
		if g, w := got.Counters[name], want.Counters[name]; g != w {
			out = append(out, fmt.Sprintf("counter %s: got %d, want %d", name, g, w))
		}
	}
	for _, name := range unionKeys(got.Gauges, want.Gauges) {
		if g, w := got.Gauges[name], want.Gauges[name]; g != w {
			out = append(out, fmt.Sprintf("gauge %s: got %d, want %d", name, g, w))
		}
	}
	for _, name := range unionKeys(got.Histograms, want.Histograms) {
		if g, w := got.Histograms[name], want.Histograms[name]; !reflect.DeepEqual(g, w) {
			out = append(out, fmt.Sprintf("histogram %s: got count %d sum %d, want count %d sum %d", name, g.Count, g.Sum, w.Count, w.Sum))
		}
	}
	return strings.Join(out, "\n")
}

// unionKeys is the sorted set of keys of two maps.
func unionKeys[V any](a, b map[string]V) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// TestMergeOrderInsensitive pins that merging the same partials yields
// byte-identical output regardless of which worker produced which window
// when: partials are pure data, the merge a canonical fold.
func TestMergeOrderInsensitive(t *testing.T) {
	tracePath := writeTrace(t, 60, 5)
	spec := WorkerSpec{Seed: 5, Metrics: true}
	dirA, dirB := t.TempDir(), t.TempDir()
	for _, dir := range []string{dirA, dirB} {
		co, err := New(Config{TracePath: tracePath, Workers: 2, Windows: 4, CheckpointDir: dir, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := co.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	read := func(dir string) []*Partial {
		m, err := LoadManifest(filepath.Join(dir, ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]*Partial, len(m.Windows))
		for i, w := range m.Windows {
			if parts[i], err = ReadPartial(filepath.Join(dir, w.Partial)); err != nil {
				t.Fatal(err)
			}
		}
		return parts
	}
	a, b := read(dirA), read(dirB)
	ma, err := MergePartials(a)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := MergePartials(b)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Digest() != mb.Digest() {
		t.Fatal("two independent coordinated runs merged to different digests")
	}

	// Structural rejections.
	if _, err := MergePartials(a[1:]); err == nil || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("merge with missing first window = %v, want tiling error", err)
	}
	swapped := append([]*Partial(nil), a...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := MergePartials(swapped); err == nil {
		t.Fatal("merge accepted out-of-order windows")
	}
	mixed := append([]*Partial(nil), a...)
	mixed[2] = &Partial{Window: a[2].Window, Spec: "other", Ledgers: a[2].Ledgers, Tasks: a[2].Tasks}
	if _, err := MergePartials(mixed); err == nil || !strings.Contains(err.Error(), "spec") {
		t.Fatalf("merge with mixed specs = %v, want spec error", err)
	}
	short := append([]*Partial(nil), a...)
	short[1] = &Partial{Window: a[1].Window, Spec: a[1].Spec, Ledgers: a[1].Ledgers, Tasks: a[1].Tasks[:1]}
	if _, err := MergePartials(short); err == nil || !strings.Contains(err.Error(), "tasks") {
		t.Fatalf("merge with short task slice = %v, want task-count error", err)
	}
}

// TestSingleProcessEmptyTrace: a bin trace with no records is an error
// naming it, not a panic in the cloud pool's constructor. A timeline is
// refused too: the reference is a window, which records none.
func TestSingleProcessEmptyTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteWorkloadBinStream(f, workload.NewSliceSource(nil)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := SingleProcess(path, WorkerSpec{Seed: 1}, nil); err == nil ||
		!strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "no records") {
		t.Fatalf("SingleProcess(empty trace) = %v, want an error naming the trace and saying it holds no records", err)
	}
	if _, err := SingleProcess(writeTrace(t, 20, 1), WorkerSpec{Seed: 1}, &replay.TimelineConfig{}); err == nil ||
		!strings.Contains(err.Error(), "timeline") {
		t.Fatalf("SingleProcess(timeline) = %v, want an error saying a window records no timeline", err)
	}
}

// TestMergeReadsThePartialsRecords: the merged result holds its partials
// and no copy of their records. A record changed in a partial after the
// merge shows in the merged digest, which reads each partial's own
// records, and merging allocates a few hundred bytes whatever the record
// count.
func TestMergeReadsThePartialsRecords(t *testing.T) {
	const windows, each = 4, 10_000
	parts := make([]*Partial, windows)
	var runs [][]replay.DigestRecord
	for i := range parts {
		recs := make([]replay.DigestRecord, each)
		for k := range recs {
			recs[k] = replay.DigestRecord{Route: core.RouteCloud, Success: k%3 != 0, CloudBytes: float64(i*each + k)}
		}
		parts[i] = &Partial{
			Window:  Window{Offset: int64(i * each), Limit: each},
			Spec:    "spec",
			Ledgers: []replay.LedgerCounts{{Name: "cloud", Fetches: each}},
			Totals:  replay.ShardTotals{Tasks: each},
			Tasks:   recs,
		}
		runs = append(runs, recs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := MergePartials(parts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4096 {
		t.Errorf("merging %d records allocated %d B: the merge copies records", windows*each, grew)
	}
	for i, p := range m.Parts {
		if p != parts[i] {
			t.Fatalf("merged partial %d is not the partial handed in", i)
		}
	}
	ledgers := []replay.LedgerCounts{{Name: "cloud", Fetches: windows * each}}
	tot := replay.ShardTotals{Tasks: windows * each}
	if got, want := m.Digest(), replay.DigestOf(runs, ledgers, tot); got != want {
		t.Fatal("merged digest differs from the digest of the partials' records")
	}
	parts[2].Tasks[7].Success = !parts[2].Tasks[7].Success
	parts[3].Tasks[each-1].Cause = "changed"
	want := replay.DigestOf(runs, ledgers, tot)
	if got := m.Digest(); got != want {
		t.Fatal("a record changed in a partial after the merge does not show in Digest: the merge keeps a copy")
	}
	var streamed strings.Builder
	if err := m.WriteDigest(&streamed); err != nil {
		t.Fatal(err)
	}
	if streamed.String() != want {
		t.Fatal("a record changed in a partial after the merge does not show in WriteDigest: the merge keeps a copy")
	}
}

// TestHaltResume is the kill-mid-run pin: a run that crashes a worker,
// checkpoints two windows, and halts must resume from the manifest and
// still match the single-process digest byte for byte, under a dynamic
// policy and in static mode. The halted run replays on one engine shard
// and the resumed one on two: the shard count changes no result, so the
// checkpoint resumes under another.
func TestHaltResume(t *testing.T) {
	tracePath := writeTrace(t, 90, 17)
	for _, spec := range []WorkerSpec{{Seed: 17, CachePolicy: "band"}, {Seed: 17}} {
		t.Run(cmp.Or(spec.CachePolicy, "static"), func(t *testing.T) { haltResume(t, tracePath, spec) })
	}
}

func haltResume(t *testing.T, tracePath string, spec WorkerSpec) {
	dir := t.TempDir()
	cfg := Config{
		TracePath:     tracePath,
		Workers:       2,
		Windows:       6,
		CheckpointDir: dir,
		Spec:          spec,
		HaltAfter:     2,
		CrashWindow:   1, // window 0's first attempt dies mid-replay
		Log:           t.Logf,
	}
	cfg.Spec.Shards = 1
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(context.Background()); !errors.Is(err, ErrHalted) {
		t.Fatalf("halted run returned %v, want ErrHalted", err)
	}
	m, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatalf("no readable checkpoint after halt: %v", err)
	}
	done := m.Done()
	if done < 2 || done == len(m.Windows) {
		t.Fatalf("after halt %d/%d windows done, want a genuine partial checkpoint", done, len(m.Windows))
	}
	crashed := false
	for _, w := range m.Windows {
		if w.Attempts > 1 {
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("crash hook never forced a retry")
	}

	// Sabotage one completed partial: resume must detect it and recompute.
	// Tear a pending window's state file too: resume must write it afresh,
	// not hand the torn one to a worker.
	tornPartial, tornState := false, false
	for i, w := range m.Windows {
		switch {
		case w.State == StateDone && !tornPartial:
			tornPartial = true
			if err := os.Truncate(filepath.Join(dir, w.Partial), 16); err != nil {
				t.Fatal(err)
			}
		case w.State != StateDone && !tornState:
			tornState = true
			// The halt may have stopped the pass before this file.
			if err := os.Truncate(filepath.Join(dir, stateName(i)), 16); err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Fatal(err)
			}
		}
	}

	cfg.HaltAfter, cfg.CrashWindow, cfg.Spec.Shards = 0, 0, 2
	co2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := co2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if co2.Resumed < 1 {
		t.Fatalf("resume recomputed everything (Resumed = %d)", co2.Resumed)
	}
	if got, want := merged.Digest(), singleDigest(t, tracePath, spec); got != want {
		t.Fatalf("resumed merged digest differs from single-process digest:\n got %s\nwant %s", got, want)
	}
}

// TestResumeUnderAnotherPlan: a run plans from the checkpoint it finds,
// so a manifest that planned 4 windows, resumed by a run that would plan
// 6, is resumed as 4, and the merged digest is still the single-process
// one. Every run has one state pass, over its checkpoint's windows: the
// resumed run's reports once, and feeds the 4 - Resumed pending windows.
// (The halted run's pass may be stopped by the halt before it reports.)
func TestResumeUnderAnotherPlan(t *testing.T) {
	tracePath := writeTrace(t, 90, 17)
	for _, spec := range []WorkerSpec{{Seed: 17, CachePolicy: "band"}, {Seed: 17}} {
		dir := t.TempDir()
		var fed []string
		cfg := Config{TracePath: tracePath, Workers: 1, Windows: 4, CheckpointDir: dir, Spec: spec, HaltAfter: 1,
			Log: func(format string, args ...any) {
				if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "state pass: ") {
					fed = append(fed, strings.Fields(line)[2])
				}
			}}
		co, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := co.Run(context.Background()); !errors.Is(err, ErrHalted) {
			t.Fatalf("halted run returned %v, want ErrHalted", err)
		}
		if len(fed) > 1 {
			t.Fatalf("%+v: the halted run reported %d state passes, want at most one", spec, len(fed))
		}
		fed = nil
		cfg.HaltAfter, cfg.Windows = 0, 6
		co2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := co2.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(merged.Parts) != 4 || co2.Resumed < 1 {
			t.Fatalf("%+v: resumed %d window(s) and merged %d, want the manifest's 4", spec, co2.Resumed, len(merged.Parts))
		}
		if want := strconv.Itoa(4 - co2.Resumed); len(fed) != 1 || fed[0] != want {
			t.Fatalf("%+v: the resumed run's state passes fed %v window states, want one pass feeding %s", spec, fed, want)
		}
		if got, want := merged.Digest(), singleDigest(t, tracePath, spec); got != want {
			t.Fatalf("%+v: resumed merged digest differs from the single-process one", spec)
		}
	}
}

// TestResumeRecomputesForeignSpecPartial: a checkpointed partial that
// another spec replayed is not this run's, however intact it reads. Resume
// must demote its window and recompute it, as it does a torn one, rather
// than count it done and fail in the merge.
func TestResumeRecomputesForeignSpecPartial(t *testing.T) {
	tracePath := writeTrace(t, 90, 17)
	spec := WorkerSpec{Seed: 17, CachePolicy: "band"}
	dir := t.TempDir()
	cfg := Config{
		TracePath:     tracePath,
		Workers:       2,
		Windows:       4,
		CheckpointDir: dir,
		Spec:          spec,
		HaltAfter:     2,
		Log:           t.Logf,
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(context.Background()); !errors.Is(err, ErrHalted) {
		t.Fatalf("halted run returned %v, want ErrHalted", err)
	}
	m, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	done := m.Done()
	if done < 2 || done == len(m.Windows) {
		t.Fatalf("after halt %d/%d windows done, want a genuine partial checkpoint", done, len(m.Windows))
	}
	// Overwrite one done window's partial with the same window replayed
	// under the next seed: a whole, valid partial of another run.
	for _, w := range m.Windows {
		if w.State != StateDone {
			continue
		}
		other := spec
		other.Seed++
		req := WorkerRequest{TracePath: tracePath, Window: w.Window(), Spec: other, PartialPath: filepath.Join(dir, w.Partial)}
		if err := RunWorker(context.Background(), req, nil); err != nil {
			t.Fatal(err)
		}
		break
	}

	cfg.HaltAfter = 0
	co2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := co2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if co2.Resumed != done-1 {
		t.Fatalf("resume kept %d of %d done windows, want all but the foreign one", co2.Resumed, done)
	}
	if got, want := merged.Digest(), singleDigest(t, tracePath, spec); got != want {
		t.Fatalf("resumed merged digest differs from single-process digest:\n got %s\nwant %s", got, want)
	}
}

// TestResumeRejectsMismatch pins that a checkpoint refuses to resume
// under a different trace or spec, naming the mismatching field, and that
// a refused run leaves no goroutine behind.
func TestResumeRejectsMismatch(t *testing.T) {
	tracePath := writeTrace(t, 60, 23)
	dir := t.TempDir()
	cfg := Config{TracePath: tracePath, Workers: 2, CheckpointDir: dir, Spec: WorkerSpec{Seed: 23}, HaltAfter: 1}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(context.Background()); !errors.Is(err, ErrHalted) {
		t.Fatalf("setup run: %v", err)
	}

	other := cfg
	other.Spec = WorkerSpec{Seed: 24}
	co2, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co2.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "manifest: spec") {
		t.Fatalf("spec mismatch resume = %v, want manifest: spec error", err)
	}

	swapped := cfg
	swapped.TracePath = writeTrace(t, 60, 99)
	co3, err := New(swapped)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if _, err := co3.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "trace_sha256") {
		t.Fatalf("trace mismatch resume = %v, want trace_sha256 error", err)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the refused run, %d after", before, after)
	}
}

// failRunner always fails, counting its attempts.
type failRunner struct{ calls *atomic.Int64 }

func (r failRunner) Run(context.Context, WorkerRequest, func(int64)) error {
	if r.calls != nil {
		r.calls.Add(1)
	}
	return errors.New("boom")
}

// corruptCopy writes a copy of the trace at tracePath with the byte at off
// (counted from the end when negative) flipped, and returns its path.
func corruptCopy(t *testing.T, tracePath string, off int) string {
	t.Helper()
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(raw)
	}
	raw[off] ^= 0xff
	path := filepath.Join(t.TempDir(), "corrupt.bin")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRestartBudgetExhaustion: a window that fails every attempt fails
// the run, wrapping the last failure — a worker's own error, or the
// checksum of a corrupt chunk in its window. A corrupt file table fails
// the run before any worker starts.
func TestRestartBudgetExhaustion(t *testing.T) {
	tracePath := writeTrace(t, 40, 3)
	co, err := New(Config{
		TracePath:     tracePath,
		Workers:       1,
		Windows:       2,
		CheckpointDir: t.TempDir(),
		Spec:          WorkerSpec{Seed: 3},
		Runner:        failRunner{},
		MaxAttempts:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = co.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "failed 2 attempts") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Run = %v, want restart-budget error wrapping the worker failure", err)
	}

	tracePath = writeTrace(t, 400, 13)
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	// Half way to the file table, whose offset is the trailer's second
	// field, is inside a chunk payload.
	tableAt := binary.LittleEndian.Uint64(raw[len(raw)-12:])
	co, err = New(Config{TracePath: corruptCopy(t, tracePath, int(tableAt/2)), Workers: 2,
		CheckpointDir: t.TempDir(), Spec: WorkerSpec{Seed: 13}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "failed 3 attempts") || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("run over a corrupt chunk = %v, want the worker's checksum error", err)
	}

	// The trailer is the file's last 20 bytes; the table's last entry ends
	// where it begins.
	var calls atomic.Int64
	co, err = New(Config{TracePath: corruptCopy(t, tracePath, -25), Workers: 2,
		CheckpointDir: t.TempDir(), Spec: WorkerSpec{Seed: 13}, Runner: failRunner{calls: &calls}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "file table") {
		t.Fatalf("run over a corrupt file table = %v, want an error naming the table", err)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("a corrupt file table started %d worker(s), want none", n)
	}
}

// stallRunner hangs without heartbeating on each window's first attempt,
// then delegates to the real in-process worker.
type stallRunner struct {
	mu      sync.Mutex
	stalled map[int64]bool
}

func (r *stallRunner) Run(ctx context.Context, req WorkerRequest, beat func(int64)) error {
	r.mu.Lock()
	first := !r.stalled[req.Window.Offset]
	r.stalled[req.Window.Offset] = true
	r.mu.Unlock()
	if first {
		<-ctx.Done() // no beats: the watchdog must kill us
		return ctx.Err()
	}
	return InProcess{}.Run(ctx, req, beat)
}

// TestHeartbeatTimeout pins the watchdog: a worker that stops beating is
// killed, restarted, and the run still converges to the exact digest.
func TestHeartbeatTimeout(t *testing.T) {
	tracePath := writeTrace(t, 60, 31)
	spec := WorkerSpec{Seed: 31}
	co, err := New(Config{
		TracePath:        tracePath,
		Workers:          2,
		Windows:          2,
		CheckpointDir:    t.TempDir(),
		Spec:             spec,
		Runner:           &stallRunner{stalled: map[int64]bool{}},
		HeartbeatTimeout: 100 * time.Millisecond,
		Log:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Digest(), singleDigest(t, tracePath, spec); got != want {
		t.Fatalf("digest after stalled-worker restarts differs:\n got %s\nwant %s", got, want)
	}
}

// beatRunner beats every 10 ms, on a goroutine of its own, for as long as
// it runs a window: it first waits 300 ms, then runs the window in
// process.
type beatRunner struct{}

func (beatRunner) Run(ctx context.Context, req WorkerRequest, beat func(int64)) error {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				beat(0)
			}
		}
	}()
	defer wg.Wait()
	defer close(done)
	select {
	case <-time.After(300 * time.Millisecond):
	case <-ctx.Done():
		return ctx.Err()
	}
	return InProcess{}.Run(ctx, req, beat)
}

// TestBeatsKeepWindowAlive: a window that runs six times its heartbeat
// timeout but keeps beating is never canceled — every window completes on
// its first attempt, the only one it is allowed, so no retry hides a
// stall.
func TestBeatsKeepWindowAlive(t *testing.T) {
	tracePath := writeTrace(t, 60, 37)
	spec := WorkerSpec{Seed: 37}
	co, err := New(Config{
		TracePath:        tracePath,
		Workers:          2,
		Windows:          2,
		CheckpointDir:    t.TempDir(),
		Spec:             spec,
		Runner:           beatRunner{},
		HeartbeatTimeout: 50 * time.Millisecond,
		MaxAttempts:      1,
		Log:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.Digest(), singleDigest(t, tracePath, spec); got != want {
		t.Fatalf("digest of the beating run differs:\n got %s\nwant %s", got, want)
	}
}

func TestRunWorkerErrors(t *testing.T) {
	// A worker reads only its window, so the trace must hold enough
	// records for one heartbeat.
	tracePath := writeTrace(t, 120, 8)
	records := openBin(t, tracePath).Census().Records
	if records < progressEvery {
		t.Fatalf("a trace of %d records is too short for a heartbeat every %d", records, progressEvery)
	}
	dir := t.TempDir()
	base := WorkerRequest{
		TracePath:   tracePath,
		Window:      Window{Offset: 0, Limit: records},
		Spec:        WorkerSpec{Seed: 8},
		PartialPath: filepath.Join(dir, "p.odrp"),
	}

	noPath := base
	noPath.PartialPath = ""
	if err := RunWorker(context.Background(), noPath, nil); err == nil {
		t.Fatal("RunWorker accepted an empty partial path")
	}

	oob := base
	oob.Window = Window{Offset: records - 1, Limit: 2}
	if err := RunWorker(context.Background(), oob, nil); err == nil || !strings.Contains(err.Error(), "outside trace") {
		t.Fatalf("RunWorker(out of bounds) = %v, want window-bounds error", err)
	}

	crash := base
	crash.CrashAfter = records / 2 // dies half way through the window
	if err := RunWorker(context.Background(), crash, nil); !errors.Is(err, ErrCrashRequested) {
		t.Fatalf("RunWorker(crash hook) = %v, want ErrCrashRequested", err)
	}
	if _, err := os.Stat(base.PartialPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("crashed worker left a partial behind: %v", err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := RunWorker(canceled, base, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunWorker(canceled ctx) = %v, want context.Canceled", err)
	}

	var beats int64
	if err := RunWorker(context.Background(), base, func(n int64) { beats = n }); err != nil {
		t.Fatal(err)
	}
	if beats == 0 {
		t.Fatal("worker never heartbeat")
	}
}

// TestWorkerServesWindows: one Worker serves every window of an 8-window
// plan in a shuffled order, then all of them again in another, under
// static mode and every cache policy, with faults and metrics on. What the
// worker keeps across windows — the trace's identities and the replay
// world, with the pre-download outcomes earlier windows built — must leave
// no trace in any window: every partial it writes is byte for byte the
// one a one-shot RunWorker writes for that window, metrics snapshot
// included, once the wall-clock Seconds are zeroed — also for the first
// two windows, requested at once, which Run serves one after the other. A later
// request under another seed or another policy rebuilds the world and
// matches its one-shot too. A request naming another trace path or
// SHA-256 is refused, naming the field.
func TestWorkerServesWindows(t *testing.T) {
	tracePath := writeTrace(t, 40, 8)
	records := openBin(t, tracePath).Census().Records
	plan := PlanWindows(records, 8)
	if len(plan) != 8 {
		t.Fatalf("a trace of %d records plans %d windows, want 8", records, len(plan))
	}
	dir := t.TempDir()
	// partial is the partial at path with its wall-clock time zeroed,
	// encoded.
	partial := func(path string) []byte {
		p, err := ReadPartial(path)
		if err != nil {
			t.Fatal(err)
		}
		p.Seconds = 0
		raw, err := encodePartial(p)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	oneShot := func(req WorkerRequest) []byte {
		req.PartialPath = filepath.Join(dir, "one-shot.odrp")
		if err := RunWorker(context.Background(), req, nil); err != nil {
			t.Fatal(err)
		}
		return partial(req.PartialPath)
	}
	serve := func(w *Worker, req WorkerRequest) []byte {
		req.PartialPath = filepath.Join(dir, "held.odrp")
		st, err := w.Run(context.Background(), req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Restore <= 0 || st.Setup <= 0 || st.Replay <= 0 || st.Write <= 0 {
			t.Fatalf("window %v: stages %+v, want each timed", req.Window, st)
		}
		return partial(req.PartialPath)
	}
	rng := rand.New(rand.NewSource(8))
	specs := []WorkerSpec{
		{Seed: 8, Faults: "0.25", Metrics: true},
		{Seed: 8, CachePolicy: "lru", PoolBytes: 64 << 20, Faults: "0.25", Metrics: true},
		{Seed: 8, CachePolicy: "lfu", PoolBytes: 64 << 20, Faults: "0.25", Metrics: true},
		{Seed: 8, CachePolicy: "band", PoolBytes: 64 << 20, Faults: "0.25", Metrics: true},
		{Seed: 8, CachePolicy: "prewarm", PoolBytes: 64 << 20, Faults: "0.25", Metrics: true},
	}
	for n, spec := range specs {
		first := WorkerRequest{TracePath: tracePath, Window: plan[0], Spec: spec}
		want := make([][]byte, len(plan))
		for k, win := range plan {
			req := first
			req.Window = win
			want[k] = oneShot(req)
		}
		w, err := OpenWorker(first)
		if err != nil {
			t.Fatal(err)
		}
		// The first two requests come at once, while the world is new.
		var wg sync.WaitGroup
		for _, k := range []int{1, 6} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := first
				req.Window, req.PartialPath = plan[k], filepath.Join(dir, fmt.Sprintf("at-once-%d.odrp", k))
				if _, err := w.Run(context.Background(), req, nil); err != nil {
					t.Errorf("%s, window %d at once: %v", spec.Fingerprint(), k, err)
				}
			}()
		}
		wg.Wait()
		for _, k := range []int{1, 6} {
			if !bytes.Equal(partial(filepath.Join(dir, fmt.Sprintf("at-once-%d.odrp", k))), want[k]) {
				t.Fatalf("%s, window %d at once: the held worker's partial differs from a one-shot one's", spec.Fingerprint(), k)
			}
		}
		for round := 0; round < 2; round++ {
			for _, k := range rng.Perm(len(plan)) {
				req := first
				req.Window = plan[k]
				if !bytes.Equal(serve(w, req), want[k]) {
					t.Fatalf("%s, round %d, window %d %v: the held worker's partial differs from a one-shot one's",
						spec.Fingerprint(), round, k, plan[k])
				}
			}
		}
		// Another seed, then the next spec's policy: the world is rebuilt.
		reseeded := spec
		reseeded.Seed++
		for _, other := range []WorkerSpec{reseeded, specs[(n+1)%len(specs)]} {
			req := first
			req.Spec, req.Window = other, plan[5]
			if !bytes.Equal(serve(w, req), oneShot(req)) {
				t.Fatalf("%s after %s: the held worker's partial differs from a one-shot one's",
					other.Fingerprint(), spec.Fingerprint())
			}
		}
		w.Close()
	}
	first := WorkerRequest{TracePath: tracePath, Window: plan[0], Spec: specs[0]}
	w, err := OpenWorker(first)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, tc := range []struct {
		field  string
		mutate func(*WorkerRequest)
	}{
		{"trace_path", func(r *WorkerRequest) { r.TracePath = writeTrace(t, 40, 8) }},
		{"trace_sha256", func(r *WorkerRequest) { r.TraceSHA256 = strings.Repeat("ab", 32) }},
	} {
		req := first
		req.PartialPath = filepath.Join(dir, "refused.odrp")
		tc.mutate(&req)
		if _, err := w.Run(context.Background(), req, nil); err == nil || !strings.Contains(err.Error(), tc.field+":") {
			t.Errorf("a request for another %s: Run = %v, want a refusal naming the field", tc.field, err)
		}
	}
}

// TestWorkerStateFiles: a worker started from a state file replays its
// window exactly as one that derives its start in memory, and a state file
// for another trace, spec or base is refused, naming the field, as is a
// file of the other kind. It runs under a dynamic policy, whose state an
// observation pass builds, and in static mode, whose state is the census
// prefix.
func TestWorkerStateFiles(t *testing.T) {
	tracePath := writeTrace(t, 40, 8)
	cen := openBin(t, tracePath).Census()
	records := cen.Records
	sha, err := trace.SHA256File(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	win := Window{Offset: records / 2, Limit: records - records/2}
	for _, spec := range []WorkerSpec{
		{Seed: 8, CachePolicy: "prewarm", PoolBytes: 64 << 20},
		{Seed: 8},
	} {
		dir := t.TempDir()
		req := WorkerRequest{
			TracePath:   tracePath,
			Window:      win,
			Spec:        spec,
			PartialPath: filepath.Join(dir, "files.odrp"),
			TraceSHA256: sha,
			StatePath:   filepath.Join(dir, stateName(1)),
		}
		fp := spec.Fingerprint()
		if err := statePass(openBin(t, tracePath), spec, []int{int(win.Offset)}, &meter{ctx: context.Background()},
			func(base int, state []byte) error {
				return writeState(req.StatePath, stateHeader{TraceSHA256: sha, Spec: fp, Base: int64(base)}, state)
			}); err != nil {
			t.Fatal(err)
		}
		derived := WorkerRequest{TracePath: tracePath, Window: win, Spec: spec, PartialPath: filepath.Join(dir, "derived.odrp")}
		digests := map[string]string{}
		for _, r := range []WorkerRequest{req, derived} {
			if err := RunWorker(context.Background(), r, nil); err != nil {
				t.Fatal(err)
			}
			p, err := ReadPartial(r.PartialPath)
			if err != nil {
				t.Fatal(err)
			}
			digests[r.PartialPath] = replay.DigestOf([][]replay.DigestRecord{p.Tasks}, p.Ledgers, p.Totals)
		}
		if digests[req.PartialPath] != digests[derived.PartialPath] {
			t.Fatalf("%s: a worker started from state files replayed differently from one deriving its start", fp)
		}

		for _, tc := range []struct {
			name   string
			mutate func(*WorkerRequest)
			want   string
		}{
			{"another trace", func(r *WorkerRequest) { r.TraceSHA256 = strings.Repeat("0", 64) }, "state trace_sha256"},
			{"another spec", func(r *WorkerRequest) { r.Spec.Seed = 9 }, "state spec"},
			{"another base", func(r *WorkerRequest) { r.Window = Window{Offset: win.Offset - 1, Limit: win.Limit + 1} }, "state base"},
			{"a partial as a state", func(r *WorkerRequest) { r.StatePath = r.PartialPath }, "state magic"},
		} {
			bad := req
			tc.mutate(&bad)
			if err := RunWorker(context.Background(), bad, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s: RunWorker = %v, want an error naming %q", fp, tc.name, err, tc.want)
			}
		}
	}
}

// TestStaticWorkerReadsTheTraceOnce: a static worker that derives its own
// start reads its window and no record before it: the census comes from
// the trace's file table and the static state from the census, so its
// heartbeats never count past the window's limit.
func TestStaticWorkerReadsTheTraceOnce(t *testing.T) {
	tracePath := writeTrace(t, 2000, 13)
	records := openBin(t, tracePath).Census().Records
	win := Window{Offset: records / 2, Limit: records / 4}
	if win.Offset < 2*progressEvery {
		t.Fatalf("a trace of %d records is too short to tell a second read of [0, %d) from heartbeat rounding", records, win.Offset)
	}
	var read int64
	req := WorkerRequest{TracePath: tracePath, Window: win, Spec: WorkerSpec{Seed: 13},
		PartialPath: filepath.Join(t.TempDir(), "w.odrp")}
	if err := RunWorker(context.Background(), req, func(n int64) { read = max(read, n) }); err != nil {
		t.Fatal(err)
	}
	if read > win.Limit {
		t.Fatalf("static worker read %d records, want at most its window's %d", read, win.Limit)
	}
	if read <= win.Limit-progressEvery {
		t.Fatalf("static worker's heartbeats reached %d records; its window alone reads %d", read, win.Limit)
	}
}

// TestStaticStateMatchesObservation: the static state the census emits —
// the prefix of files first seen before a base — is byte for byte the
// state a static cloud builds by observing the trace's records one by one
// (as a whole-trace replay's does), at the trace's ends and at every
// window base of two plans, on a trace whose files recur across chunks.
// The census path reads no record.
func TestStaticStateMatchesObservation(t *testing.T) {
	tracePath := writeTrace(t, 2000, 5)
	cen := openBin(t, tracePath).Census()
	records := cen.Records
	bases := []int{0, 1, int(records) - 1, int(records)}
	for _, n := range []int{3, 8} {
		for _, w := range PlanWindows(records, n) {
			bases = append(bases, int(w.Offset))
		}
	}
	slices.Sort(bases)
	bases = slices.Compact(bases)
	spec := WorkerSpec{Seed: 5}
	var fromCensus, observed [][]byte
	m := &meter{ctx: context.Background()}
	if err := statePass(openBin(t, tracePath), spec, bases, m,
		func(_ int, state []byte) error { fromCensus = append(fromCensus, state); return nil }); err != nil {
		t.Fatal(err)
	}
	if m.processed != 0 {
		t.Fatalf("the static state pass read %d records, want none", m.processed)
	}
	// The oracle streams every record through a static cloud's
	// observation pass.
	set := backend.NewSet(cen.Files, cloud.DefaultConfig(float64(len(cen.Files))/cloud.FullScaleFiles, spec.Seed), spec.Seed)
	set.Reserve(int(records))
	src, err := openBin(t, tracePath).Ordinals(0, records)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, base := range bases {
		for ; n < base; n++ {
			i, file, when, ok := src.Next()
			if !ok {
				t.Fatalf("the trace ended after %d records, before the base %d: %v", n, base, src.Err())
			}
			set.Cloud.ObserveOrdinal(i, backend.Ordinal(file+1), cen.Files[file], when)
		}
		state, err := set.Cloud.AppendState(nil)
		if err != nil {
			t.Fatal(err)
		}
		observed = append(observed, state)
	}
	if len(fromCensus) != len(bases) {
		t.Fatalf("%d bases, %d census states", len(bases), len(fromCensus))
	}
	for k, base := range bases {
		if !bytes.Equal(fromCensus[k], observed[k]) {
			t.Errorf("base %d: census state %x, observed %x", base, fromCensus[k], observed[k])
		}
	}
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{CheckpointDir: "x"}); err == nil {
		t.Fatal("New accepted an empty trace path")
	}
	if _, err := New(Config{TracePath: "x"}); err == nil {
		t.Fatal("New accepted an empty checkpoint dir")
	}
	if _, err := New(Config{TracePath: "x", CheckpointDir: "y", Workers: -1}); err == nil {
		t.Fatal("New accepted negative workers")
	}
	if _, err := New(Config{TracePath: "x", CheckpointDir: "y", Spec: WorkerSpec{Shards: -1}}); err == nil {
		t.Fatal("New accepted an invalid spec")
	}
}

func TestWindowString(t *testing.T) {
	w := Window{Offset: 10, Limit: 5}
	if w.String() != "[10, 15)" || w.End() != 15 {
		t.Fatalf("Window formatting broke: %s end %d", w, w.End())
	}
}

// TestMeteredSourceForwardsLength: a window worker meters a bin window,
// whose length the trailer fixes; the meter must keep announcing it
// (workload.Sizer), or the engine takes the window for a stream of
// unknown length and materialises it before replaying. A source with no
// length to forward reads as unknown.
func TestMeteredSourceForwardsLength(t *testing.T) {
	tracePath := writeTrace(t, 40, 8)
	records := openBin(t, tracePath).Census().Records
	win := Window{Offset: records / 3, Limit: records / 2}
	src, closer, err := trace.OpenWorkloadBinWindow(tracePath, win.Offset, win.Limit)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	m := &meter{ctx: context.Background()}
	sz, ok := m.wrap(src).(workload.Sizer)
	if !ok {
		t.Fatal("metered source is not a workload.Sizer")
	}
	if got := int64(sz.TotalRequests()); got != win.Limit {
		t.Fatalf("metered window announces %d requests, want the window's %d", got, win.Limit)
	}
	unsized := m.wrap(workload.NewCensus().Wrap(src)) // the census wrapper has no length
	if got := unsized.(workload.Sizer).TotalRequests(); got != 0 {
		t.Fatalf("metered source over an unsized one announces %d, want 0 (unknown)", got)
	}
}

// TestCensusMatchesWorkloadCensus pins the census: the file table the
// trace carries is workload.Census's first-appearance order over the
// decoded records, each file with the record it first appears at and
// every field, its SourceURL included, on a trace of several chunks whose
// files recur across chunk boundaries.
func TestCensusMatchesWorkloadCensus(t *testing.T) {
	tracePath := writeTrace(t, 2000, 5)
	cen := openBin(t, tracePath).Census()
	got := cen.Files
	src, closer, err := trace.OpenWorkloadBinWindow(tracePath, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	c := workload.NewCensus()
	first := map[*workload.FileMeta]int{}
	span := 0 // the longest distance between a file's first and last record
	records := 0
	for {
		i, req, ok := src.Next()
		if !ok {
			break
		}
		records++
		c.Observe(req)
		if f, seen := first[req.File]; seen {
			span = max(span, i-f)
		} else {
			first[req.File] = i
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	// A chunk closes once its payload reaches 32 KiB, a record of this
	// trace takes at most 4 KiB, and a record is at least 3 bytes, so
	// records this far apart sit in different chunks.
	if minApart := (32<<10 + 4096) / 3; span <= minApart {
		t.Fatalf("no file recurs more than %d records after its first sighting; the trace does not cross chunks", span)
	}
	want := c.Files()
	if len(got) != len(want) {
		t.Fatalf("census has %d files, workload.Census %d", len(got), len(want))
	}
	for i := range want {
		if *got[i] != *want[i] {
			t.Fatalf("census file %d is %+v, workload.Census has %+v", i, got[i], want[i])
		}
		if cen.First[i] != first[want[i]] {
			t.Fatalf("census file %d first appears at record %d, the census says %d", i, first[want[i]], cen.First[i])
		}
	}
	if len(cen.First) != len(got) {
		t.Fatalf("census has %d files and %d first indices", len(got), len(cen.First))
	}
	if cen.Records != int64(records) {
		t.Fatalf("census declares %d records, the trace carries %d", cen.Records, records)
	}
}
