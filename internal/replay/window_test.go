package replay

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"odr/internal/faults"
	"odr/internal/obs"
	"odr/internal/smartap"
	"odr/internal/trace"
	"odr/internal/workload"
)

// openBinTrace writes reqs as a bin trace file and opens it for the rest
// of the test.
func openBinTrace(tb testing.TB, reqs []workload.Request) *trace.Bin {
	tb.Helper()
	var buf bytes.Buffer
	if err := trace.WriteWorkloadBinStream(&buf, workload.NewSliceSource(reqs)); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "trace.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	bin, err := trace.OpenBin(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { bin.Close() })
	return bin
}

// refObserveStates is the observation pass as it read a trace before the
// ordinal view: every record decoded with its identities and resolved
// through the population, whose ID check stands in for the census's
// proof of distinct IDs. It is the reference ObserveStates must match byte
// for byte.
func refObserveStates(src workload.RequestSource, files []*workload.FileMeta, opts Options,
	bases []int, emit func(base int, state []byte) error) error {
	set := newSet(files, opts, bases[len(bases)-1])
	pop := set.Population()
	n := 0
	for _, base := range bases {
		for ; n < base; n++ {
			i, wreq, ok := src.Next()
			if !ok {
				return fmt.Errorf("reference pass ended after %d records: %v", n, src.Err())
			}
			set.Cloud.ObserveOrdinal(i, pop.File(wreq.File), wreq.File, wreq.Time)
		}
		state, err := set.Cloud.AppendState(nil)
		if err != nil {
			return err
		}
		if err := emit(base, state); err != nil {
			return err
		}
	}
	return nil
}

// statesAt collects the states a pass emits.
func statesAt(tb testing.TB, pass func(emit func(int, []byte) error) error) [][]byte {
	tb.Helper()
	var out [][]byte
	if err := pass(func(_ int, s []byte) error { out = append(out, s); return nil }); err != nil {
		tb.Fatal(err)
	}
	return out
}

// poolBytes is bench's stress pool: a twelfth of the census's bytes.
func poolBytes(census []*workload.FileMeta) int64 {
	var pop int64
	for _, f := range census {
		pop += f.Size
	}
	return pop / 12
}

// TestObserveStatesMatchesIdentityPass: ObserveStates emits byte for byte
// the states the identity pass emits — under every cache policy from the
// ordinal pass over a trace.Bin, in static mode from the census's
// first-appearance indices — at eight bases spread over a trace of many
// chunks and at the subsets of them a resumed run asks for.
func TestObserveStatesMatchesIdentityPass(t *testing.T) {
	tr, err := workload.Generate(workload.DefaultConfig(1500, 13))
	if err != nil {
		t.Fatal(err)
	}
	bin := openBinTrace(t, tr.Requests)
	census, first := bin.Census().Files, bin.Census().First
	records := len(tr.Requests)
	bases := make([]int, 8)
	for k := range bases {
		bases[k] = (k + 1) * records / len(bases)
	}
	resumed := map[string][]int{
		"all eight":   bases,
		"last five":   bases[3:],
		"every other": {bases[1], bases[3], bases[5], bases[7]},
		"last alone":  bases[7:],
		"from zero":   append([]int{0}, bases[:2]...),
	}
	for _, policy := range []string{"", "lru", "lfu", "band", "prewarm"} {
		opts := Options{Seed: 13, CachePolicy: policy, PoolBytes: poolBytes(census)}
		for name, at := range resumed {
			got := statesAt(t, func(emit func(int, []byte) error) error {
				src, err := bin.Ordinals(0, -1)
				if err != nil {
					return err
				}
				return ObserveStates(src, census, first, opts, at, emit)
			})
			want := statesAt(t, func(emit func(int, []byte) error) error {
				src, err := bin.Window(0, -1)
				if err != nil {
					return err
				}
				return refObserveStates(src, census, opts, at, emit)
			})
			if len(got) != len(at) || len(want) != len(at) {
				t.Fatalf("policy %q, %s: %d and %d states for %d bases", policy, name, len(got), len(want), len(at))
			}
			for k := range at {
				if !bytes.Equal(got[k], want[k]) {
					t.Errorf("policy %q, %s: the state at %d differs from the identity pass's", policy, name, at[k])
				}
			}
		}
	}
}

// ordinals is an OrdinalSource over fixed file ordinals, a millisecond
// apart.
type ordinals struct {
	files []int
	n     int
}

func (o *ordinals) Next() (int, int, time.Duration, bool) {
	if o.n == len(o.files) {
		return 0, 0, 0, false
	}
	o.n++
	return o.n - 1, o.files[o.n-1], time.Duration(o.n) * time.Millisecond, true
}

func (o *ordinals) Err() error { return nil }

// TestObserveStatesRefusesOrdinalPastCensus: a source naming a file the
// census does not hold is an error, not an index panic.
func TestObserveStatesRefusesOrdinalPastCensus(t *testing.T) {
	census := []*workload.FileMeta{{ID: workload.FileIDFromIndex(1), Size: 1 << 20}, {ID: workload.FileIDFromIndex(2), Size: 1 << 20}}
	for _, file := range []int{2, -1} {
		src := ordinals{files: []int{0, 1, file}}
		err := ObserveStates(&src, census, nil, Options{Seed: 1, CachePolicy: "lru"}, []int{3}, func(int, []byte) error { return nil })
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("record 2 names file %d of a census of 2", file)) {
			t.Errorf("ordinal %d: %v, want a refusal naming the record", file, err)
		}
	}
}

// TestWindowRecordsMatchStream: windows replayed from their observation
// states, each keeping its tasks as digest records written in place,
// concatenate to exactly the digest records of a whole-stream replay's
// tasks — for every cache policy and static mode, under faults, with
// metrics on and off, over plans of 1, 3 and 8 windows, every window of a
// policy replayed over one World.
func TestWindowRecordsMatchStream(t *testing.T) {
	tr, err := workload.Generate(workload.DefaultConfig(800, 17))
	if err != nil {
		t.Fatal(err)
	}
	bin := openBinTrace(t, tr.Requests)
	census := bin.Census().Files
	records := len(tr.Requests)
	fs, err := faults.ParseSpec("0.25")
	if err != nil {
		t.Fatal(err)
	}
	aps := smartap.Benchmarked()
	window := func(offset, limit int) workload.RequestSource {
		src, err := bin.Window(int64(offset), int64(limit))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	for _, policy := range []string{"", "lru", "lfu", "band", "prewarm"} {
		// One world serves every window of the policy, across plans.
		world := NewWorld(census, Options{Seed: 17, CachePolicy: policy, PoolBytes: poolBytes(census)})
		for _, metrics := range []bool{false, true} {
			opts := Options{Seed: 17, CachePolicy: policy, PoolBytes: poolBytes(census), Faults: &fs, Shards: 3}
			at := func() Options {
				o := opts
				if metrics {
					o.Metrics = obs.NewRegistry()
				}
				return o
			}
			whole, err := RunODRStream(window(0, -1), census, aps, at())
			if err != nil {
				t.Fatal(err)
			}
			want := DigestRecords(whole.Tasks)
			for _, n := range []int{1, 3, 8} {
				bases := make([]int, n)
				for k := range bases {
					bases[k] = k * records / n
				}
				src, err := bin.Ordinals(0, -1)
				if err != nil {
					t.Fatal(err)
				}
				states := statesAt(t, func(emit func(int, []byte) error) error {
					return ObserveStates(src, census, bin.Census().First, opts, bases, emit)
				})
				var got []DigestRecord
				for k, base := range bases {
					end := records
					if k+1 < n {
						end = bases[k+1]
					}
					res, err := RunODRWindow(world, states[k], window(base, end-base), base, aps, at())
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, res.Records...)
				}
				if len(got) != len(want) {
					t.Fatalf("policy %q, metrics %v, %d windows: %d records, want %d", policy, metrics, n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("policy %q, metrics %v, %d windows: record %d is %+v, want %+v", policy, metrics, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestWindowRefusesForeignWorld: a window replayed over a world built
// under another seed, cache policy or pool size is refused, naming the
// field, before anything replays.
func TestWindowRefusesForeignWorld(t *testing.T) {
	tr, err := workload.Generate(workload.DefaultConfig(60, 5))
	if err != nil {
		t.Fatal(err)
	}
	bin := openBinTrace(t, tr.Requests)
	census := bin.Census().Files
	built := Options{Seed: 5, CachePolicy: "band", PoolBytes: poolBytes(census)}
	world := NewWorld(census, built)
	for _, tc := range []struct {
		field string
		opts  func(o *Options)
	}{
		{"seed", func(o *Options) { o.Seed++ }},
		{"cache policy", func(o *Options) { o.CachePolicy = "lru" }},
		{"pool bytes", func(o *Options) { o.PoolBytes++ }},
	} {
		opts := built
		tc.opts(&opts)
		src, err := bin.Window(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunODRWindow(world, []byte{'d'}, src, 0, smartap.Benchmarked(), opts)
		if err == nil || !strings.Contains(err.Error(), "window's "+tc.field) {
			t.Errorf("another %s: RunODRWindow = %v, want a refusal naming it", tc.field, err)
		}
	}
}
