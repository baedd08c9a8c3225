package backend

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"odr/internal/trace"
	"odr/internal/workload"
)

// TestPopulationOrdinalsMatchMaps is the differential test of the ordinal
// path: every record resolves, through the trace ordinals the bin decoder
// stamps on its identities, to the file and user ordinals the maps give
// the same record with no ordinal. It runs over a full stream and a
// mid-trace window (seeded with the trace's census, where the maps must
// add nothing), generated requests that carry no ordinal, seeds that are
// not the census — reversed, and a superset with files of its own before,
// between and after the census's — TestReplayPopulationEdges' shapes
// (user IDs at the edges of the int range, files the seed never names),
// and two traces whose users' ordinals disagree, which the user ID check
// sends to the maps. Where the records are the seeding census's own trace,
// ResolveCensus, which takes a census ordinal with no ID compare, gives the
// same ordinals too — and falls back to the checked path for a census
// seeded with a repeated ID.
func TestPopulationOrdinalsMatchMaps(t *testing.T) {
	tr, err := workload.Generate(workload.DefaultConfig(2500, 29))
	if err != nil {
		t.Fatal(err)
	}
	reqs := tr.Requests[:12000] // several chunks: a window skips some
	data := binTrace(t, reqs)
	full := decode(t, data, 0, -1)
	census := workload.NewCensus()
	for _, r := range full {
		census.Observe(r)
	}
	cen := census.Files()
	window := decode(t, data, 7000, 3000)

	reversed := slices.Clone(cen)
	slices.Reverse(reversed)
	var superset []*workload.FileMeta
	for k, f := range cen {
		if k%50 == 0 {
			superset = append(superset, &workload.FileMeta{ID: workload.FileIDFromIndex(1<<40 + uint64(k))})
		}
		superset = append(superset, f)
	}
	superset = append(superset, tr.Files...) // duplicates: each keeps its first ordinal

	// The same requests backwards: a second trace over the same users,
	// first seen in another order, so their trace ordinals disagree with
	// the first trace's.
	backwards := slices.Clone(reqs)
	slices.Reverse(backwards)
	twoTraces := append(slices.Clone(full), decode(t, binTrace(t, backwards), 0, -1)...)

	edges := edgeRequests(reqs)
	edgeFull := decode(t, binTrace(t, edges), 0, -1)
	edgeWindow := decode(t, binTrace(t, edges), 5432, 3000)

	for _, tc := range []struct {
		name   string
		seed   []*workload.FileMeta
		reqs   []workload.Request
		mapped bool // whether the maps may gain entries
		census bool // whether reqs are the seed's own trace's (ResolveCensus)
	}{
		{"full stream", cen, full, false, true},
		{"window", cen, window, false, true},
		{"census with a repeat", append(slices.Clone(cen), cen[0]), full, false, true},
		{"generated", cen, reqs, true, false},
		{"reversed census", reversed, full, true, false},
		{"superset census", superset, full, true, false},
		{"superset census window", superset, window, true, false},
		{"edges", tr.Files, edgeFull, true, false},
		{"edges window", tr.Files, edgeWindow, true, false},
		{"edges over census", cen, edgeFull, true, false},
		{"two traces", cen, twoTraces, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			byOrd, byMap, byCensus := NewPopulation(tc.seed), NewPopulation(tc.seed), NewPopulation(tc.seed)
			for i, r := range tc.reqs {
				f, u := byOrd.Resolve(r)
				wf, wu := byMap.Resolve(withoutOrd(r))
				if f != wf || u != wu {
					t.Fatalf("record %d: ordinals (%d, %d) by trace ordinal, (%d, %d) by map", i, f, u, wf, wu)
				}
				if !tc.census {
					continue
				}
				if cf, cu := byCensus.ResolveCensus(r); cf != wf || cu != wu {
					t.Fatalf("record %d: ordinals (%d, %d) by census ordinal, (%d, %d) by map", i, cf, cu, wf, wu)
				}
			}
			if tc.mapped {
				return
			}
			if byOrd.added != nil || byOrd.users != nil {
				t.Fatalf("the maps gained entries: %d files over a seed of %d, user map %v",
					byOrd.numFiles(), byOrd.seeded(), byOrd.users != nil)
			}
		})
	}
}

// binTrace writes reqs as a bin trace.
func binTrace(t *testing.T, reqs []workload.Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteWorkloadBinStream(&buf, workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decode reads the window [offset, offset+limit) of a bin trace.
func decode(t *testing.T, data []byte, offset, limit int64) []workload.Request {
	t.Helper()
	src, err := trace.StreamWorkloadBinWindow(bytes.NewReader(data), offset, limit)
	if err != nil {
		t.Fatal(err)
	}
	out, err := workload.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// withoutOrd is r with copies of its identities that carry no ordinal.
func withoutOrd(r workload.Request) workload.Request {
	f, u := *r.File, *r.User
	f.Ord, u.Ord = 0, 0
	r.File, r.User = &f, &u
	return r
}

// edgeRequests reshapes reqs as TestReplayPopulationEdges does: 97 users
// whose IDs sit at the int range's edges, and every third file's ID moved
// out of the generated population.
func edgeRequests(reqs []workload.Request) []workload.Request {
	users := make([]*workload.User, 97)
	for k := range users {
		u := *reqs[k].User
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
	out := make([]workload.Request, len(reqs))
	for i, r := range reqs {
		if i%3 == 0 {
			f := *r.File
			f.ID[0] ^= 0xA5
			f.ID[15], f.ID[14] = byte(i), byte(i>>8)
			f.SourceURL = fmt.Sprintf("http://edge.invalid/%d", i)
			r.File = &f
		}
		r.User = users[(i*7)%len(users)]
		out[i] = r
	}
	return out
}
