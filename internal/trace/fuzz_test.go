package trace

import (
	"bytes"
	"path/filepath"
	"testing"

	"odr/internal/workload"
)

// fuzzSeeds returns the structured seed inputs every decoder fuzzer
// starts from: a valid encoding of the edge-case corpus, a truncated
// copy, a single-byte corruption, and a few degenerate inputs. The
// committed testdata/fuzz corpora extend these with generated traces.
func fuzzSeeds(tb testing.TB, format string) [][]byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteWorkloadStream(&buf, format, workload.NewSliceSource(edgeRequests())); err != nil {
		tb.Fatal(err)
	}
	valid := buf.Bytes()
	truncated := valid[:len(valid)*2/3]
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x5a
	return [][]byte{
		valid,
		truncated,
		flipped,
		nil,
		[]byte("\n"),
		[]byte("ODRB"),
	}
}

// TestCommittedValidSeedsDecode: each decoder fuzzer's committed
// generated-valid seed decodes without error, so a format change that
// leaves the corpus stale fails here instead of fuzzing only the refusal
// of an old header.
func TestCommittedValidSeedsDecode(t *testing.T) {
	for _, c := range []struct{ fuzzer, format string }{
		{"FuzzBinDecode", "bin"}, {"FuzzCSVDecode", "csv"}, {"FuzzJSONLDecode", "jsonl"},
	} {
		data := corpusFile(t, filepath.Join("testdata", "fuzz", c.fuzzer, "generated-valid"))
		back, err := collect(StreamWorkload(bytes.NewReader(data), c.format))
		if err != nil || len(back) == 0 {
			t.Errorf("%s generated-valid: %d records, %v; want it to decode", c.fuzzer, len(back), err)
		}
	}
}

// fuzzDecode is the property every decoder must hold for arbitrary
// bytes: never panic, and when it does accept records, hand them out
// with the strict 0,1,2,... index contract and non-nil identities.
func fuzzDecode(t *testing.T, format string, data []byte) {
	src, err := StreamWorkload(bytes.NewReader(data), format)
	if err != nil {
		return
	}
	want := 0
	for {
		i, req, ok := src.Next()
		if !ok {
			break
		}
		if i != want {
			t.Fatalf("index %d, want %d", i, want)
		}
		if req.User == nil || req.File == nil {
			t.Fatalf("record %d: nil identity %+v", i, req)
		}
		want++
	}
	// A decode error is fine; a panic or a violated contract is not.
	_ = src.Err()
}

func FuzzCSVDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f, "csv") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, "csv", data)
	})
}

func FuzzJSONLDecode(f *testing.F) {
	for _, seed := range fuzzSeeds(f, "jsonl") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, "jsonl", data)
	})
}

// FuzzBinDecode: the record readers, the ordinal view and the census
// reader hold for any bytes. Past the shared seeds, one seed per way the file table can be
// damaged (binTableDamage), then one per way a record's ordinals can be
// (binOrdinalDamage).
func FuzzBinDecode(f *testing.F) {
	seeds := fuzzSeeds(f, "bin")
	for _, seed := range seeds {
		f.Add(seed)
	}
	for _, tc := range binTableDamage(seeds[0]) {
		f.Add(tc.data)
	}
	for _, tc := range binOrdinalDamage(f, edgeRequests()) {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDecode(t, "bin", data)
		// A census the reader accepts is one a window can start from.
		if tab, err := readBinTable(bytes.NewReader(data)); err == nil {
			cen := tab.census()
			if len(cen.First) != len(cen.Files) {
				t.Fatalf("census of %d files has %d first indices", len(cen.Files), len(cen.First))
			}
			for k, i := range cen.First {
				if int64(i) >= cen.Records || (k > 0 && i <= cen.First[k-1]) {
					t.Fatalf("census first indices %v do not ascend inside %d records", cen.First, cen.Records)
				}
			}
		}
		// So must the ordinal view, which builds no identity.
		rs := bytes.NewReader(data)
		if tab, err := readBinTable(rs); err == nil {
			for s := binOrdinals(rs, tab, 0, -1); ; {
				if _, _, _, _, ok := s.next(); !ok {
					break
				}
			}
		}
		// The windowed reader must be just as robust.
		if src, err := StreamWorkloadBinWindow(bytes.NewReader(data), int64(len(data)%7), 16); err == nil {
			for {
				if _, _, ok := src.Next(); !ok {
					break
				}
			}
			_ = src.Err()
		}
	})
}
