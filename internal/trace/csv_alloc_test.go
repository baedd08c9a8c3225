//go:build !race

package trace

import (
	"bytes"
	"io"
	"testing"

	"odr/internal/workload"
)

// TestCSVSteadyStateAllocs gates the CSV codec's allocations. Encoding
// allocates nothing per record: a stream of n2 records costs what one of
// n1 does. Decoding allocates only for a record's first sighting of its
// user (the *User) or file (the *FileMeta and its URL string): a stream
// decoded twice over, so that the second pass sees no new identity, costs
// what one pass does, and the one pass costs no more than its fixed
// buffers, one object per user, two per file, and the growth of the two
// intern maps. The file is excluded under -race: instrumentation
// allocates per tracked access and would measure the detector.
func TestCSVSteadyStateAllocs(t *testing.T) {
	reqs := sampleRequests(t, 2800)
	users := map[int]bool{}
	files := map[workload.FileID]bool{}
	for _, r := range reqs {
		users[r.User.ID] = true
		files[r.File.ID] = true
	}

	// minAllocs is testing.AllocsPerRun's count, the least of a few
	// tries: GC bookkeeping only ever adds to it.
	minAllocs := func(f func()) float64 {
		best := -1.0
		for try := 0; try < 3; try++ {
			if n := testing.AllocsPerRun(5, f); best < 0 || n < best {
				best = n
			}
		}
		return best
	}

	encode := func(n int) float64 {
		return minAllocs(func() {
			if err := WriteWorkloadCSVStream(io.Discard, workload.NewSliceSource(reqs[:n])); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n1, n2 = 100, 2800
	if a1, a2 := encode(n1), encode(n2); a2 != a1 {
		t.Errorf("encoding %d records allocates %v objects, %d records %v: %.4f per record, want 0",
			n2, a2, n1, a1, (a2-a1)/(n2-n1))
	}

	var once, twice bytes.Buffer
	if err := WriteWorkloadCSVStream(&once, workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	if err := WriteWorkloadCSVStream(&twice, workload.NewSliceSource(append(reqs[:len(reqs):len(reqs)], reqs...))); err != nil {
		t.Fatal(err)
	}
	decode := func(data []byte, want int) float64 {
		return minAllocs(func() {
			src, err := StreamWorkloadCSV(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				if _, _, ok := src.Next(); !ok {
					break
				}
				n++
			}
			if err := src.Err(); err != nil || n != want {
				t.Fatalf("decoded %d of %d records: %v", n, want, err)
			}
		})
	}
	empty := decode([]byte(csvHeaderLine), 0)
	single := decode(once.Bytes(), len(reqs))
	double := decode(twice.Bytes(), 2*len(reqs))
	if double != single {
		t.Errorf("decoding %d records allocates %v objects, the same records twice over %v: "+
			"a repeated identity allocates %.4f per record, want 0", len(reqs), single, double, (double-single)/float64(len(reqs)))
	}
	// Map growth: the two intern maps move to larger tables as they fill,
	// 32 objects at this population; 64 leaves room for a runtime change.
	const mapGrowth = 64
	if perIdentity := len(users) + 2*len(files); single-empty > float64(perIdentity+mapGrowth) {
		t.Errorf("decoding %d records with %d users and %d files allocates %v objects beyond the fixed %v, "+
			"want at most %d for first sightings and %d for map growth",
			len(reqs), len(users), len(files), single-empty, empty, perIdentity, mapGrowth)
	}
	t.Logf("decode: %v fixed, %v for %d records (%d users, %d files); the same records twice: %v",
		empty, single-empty, len(reqs), len(users), len(files), double)
}
