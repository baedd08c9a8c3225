package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"odr/internal/workload"
)

// unseekable hides the io.ReadSeeker face of a bytes.Reader so tests can
// exercise the pure-streaming bin path.
type unseekable struct{ r io.Reader }

func (u unseekable) Read(p []byte) (int, error) { return u.r.Read(p) }

// msRequests returns generated sample requests with times truncated to
// millisecond precision — what every trace format preserves — so decoded
// streams can be compared against the originals directly.
func msRequests(t *testing.T, n int) []workload.Request {
	t.Helper()
	reqs := append([]workload.Request(nil), sampleRequests(t, n)...)
	for i := range reqs {
		reqs[i].Time = reqs[i].Time.Truncate(time.Millisecond)
	}
	return reqs
}

func binBytes(t *testing.T, reqs []workload.Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteWorkloadBin(&buf, reqs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// normalizeLossy applies the text formats' bandwidth semantics
// (FromRequest → ToRequest) to a request slice: unreported bandwidth
// becomes 0 and ReportsBW is re-derived from the stored value. Records
// normalized this way round-trip identically through all three formats.
func normalizeLossy(reqs []workload.Request) []workload.Request {
	out := make([]workload.Request, len(reqs))
	users := map[int]*workload.User{}
	for i, r := range reqs {
		u, ok := users[r.User.ID]
		if !ok {
			cp := *r.User
			if !cp.ReportsBW {
				cp.AccessBW = 0
			}
			cp.ReportsBW = cp.AccessBW > 0
			u = &cp
			users[r.User.ID] = u
		}
		out[i] = workload.Request{User: u, File: r.File, Time: r.Time}
	}
	return out
}

// checkLosslessRoundTrip asserts back reproduces reqs field-for-field,
// including the modeled bandwidth of non-reporting users — the bin
// format's contract, stricter than checkEdgeRoundTrip's text semantics.
func checkLosslessRoundTrip(t *testing.T, reqs, back []workload.Request) {
	t.Helper()
	if len(back) != len(reqs) {
		t.Fatalf("round trip returned %d records, want %d", len(back), len(reqs))
	}
	for i := range reqs {
		a, b := reqs[i], back[i]
		if *a.User != *b.User {
			t.Fatalf("record %d: user not lossless: %+v vs %+v", i, a.User, b.User)
		}
		if *a.File != *b.File {
			t.Fatalf("record %d: file not lossless:\n %+v\n %+v", i, a.File, b.File)
		}
		if a.Time != b.Time {
			t.Fatalf("record %d: time %v -> %v", i, a.Time, b.Time)
		}
	}
}

// TestEdgeCaseBinRoundTrip: bin round-trips the edge corpus losslessly —
// unlike csv/jsonl, the unreported-bandwidth user keeps its modeled
// AccessBW (the flags byte carries ReportsBW), which is what lets a full
// generated week replay from a bin file.
func TestEdgeCaseBinRoundTrip(t *testing.T) {
	reqs := edgeRequests()
	back, err := ReadWorkloadBin(bytes.NewReader(binBytes(t, reqs)))
	if err != nil {
		t.Fatal(err)
	}
	checkLosslessRoundTrip(t, reqs, back)
	if back[0].User.ReportsBW || back[0].User.AccessBW == 0 {
		t.Fatalf("unreported-bandwidth user decoded as %+v: bin must keep the modeled bandwidth with ReportsBW false",
			back[0].User)
	}
}

// TestBinMatchesTextFormats is the three-way equivalence check: the same
// request stream round-tripped through csv, jsonl, and bin yields the same
// records, and HashWorkload agrees across all of them.
func TestBinMatchesTextFormats(t *testing.T) {
	edges := edgeRequests()
	for i := range edges {
		// Lift the edge files out of the generator's FileIDFromIndex ID
		// space so interning cannot fold them into generated files.
		edges[i].File.ID = workload.FileIDFromIndex(1<<40 + uint64(i))
	}
	// Equivalence holds on the lossy-normalized corpus: csv/jsonl drop
	// unreported bandwidth by design, so only normalized streams can
	// round-trip identically through all three formats.
	reqs := normalizeLossy(append(msRequests(t, 300), edges...))
	want, wantN, err := HashWorkload(workload.NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if wantN != len(reqs) {
		t.Fatalf("HashWorkload counted %d records, want %d", wantN, len(reqs))
	}
	for _, format := range []string{"csv", "jsonl", "bin"} {
		var buf bytes.Buffer
		if err := WriteWorkloadStream(&buf, format, workload.NewSliceSource(reqs)); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		src, err := StreamWorkload(bytes.NewReader(buf.Bytes()), format)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		back := drainChecked(t, src)
		checkEdgeRoundTrip(t, reqs, back)
		got, n, err := HashWorkload(workload.NewSliceSource(back))
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if n != wantN || got != want {
			t.Fatalf("%s round trip digest %s (%d records), want %s (%d)", format, got, n, want, wantN)
		}
	}
}

// TestBinSizer: a bin source over a seekable reader knows its record count
// from the trailer; over a plain reader it stays unsized, like csv/jsonl.
func TestBinSizer(t *testing.T) {
	reqs := sampleRequests(t, 250)
	data := binBytes(t, reqs)

	src, err := StreamWorkloadBin(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sz, ok := src.(workload.Sizer)
	if !ok {
		t.Fatal("seekable bin source does not implement Sizer")
	}
	if got := sz.TotalRequests(); got != len(reqs) {
		t.Fatalf("TotalRequests = %d, want %d", got, len(reqs))
	}
	if got := len(drainChecked(t, src)); got != len(reqs) {
		t.Fatalf("drained %d records, want %d", got, len(reqs))
	}

	src, err = StreamWorkloadBin(unseekable{bytes.NewReader(data)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(workload.Sizer); ok {
		t.Fatal("unseekable bin source claims Sizer")
	}
	if got := len(drainChecked(t, src)); got != len(reqs) {
		t.Fatalf("unseekable drain: %d records, want %d", got, len(reqs))
	}
}

// TestBinWindow checks (offset, limit) windows against the full slice,
// including windows spanning chunk boundaries (the trace is written with a
// tiny chunk target so it has many chunks) and degenerate windows.
func TestBinWindow(t *testing.T) {
	reqs := msRequests(t, 400)
	var buf bytes.Buffer
	if err := writeWorkloadBin(&buf, workload.NewSliceSource(reqs), 1<<10); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cases := []struct {
		offset, limit int64
		want          int
	}{
		{0, -1, 400},  // everything
		{0, 400, 400}, // exact limit
		{0, 7, 7},
		{137, 100, 100}, // mid-chunk start, chunk-crossing span
		{399, -1, 1},    // last record
		{400, -1, 0},    // window starts at EOF
		{1000, 5, 0},    // window past EOF
		{250, 0, 0},     // empty window
		{380, 100, 20},  // limit clipped by EOF
	}
	for _, tc := range cases {
		src, err := StreamWorkloadBinWindow(bytes.NewReader(data), tc.offset, tc.limit)
		if err != nil {
			t.Fatalf("window(%d,%d): %v", tc.offset, tc.limit, err)
		}
		if got := src.(workload.Sizer).TotalRequests(); got != tc.want {
			t.Fatalf("window(%d,%d): TotalRequests = %d, want %d", tc.offset, tc.limit, got, tc.want)
		}
		got := drainChecked(t, src)
		if len(got) != tc.want {
			t.Fatalf("window(%d,%d): %d records, want %d", tc.offset, tc.limit, len(got), tc.want)
		}
		lo := int(tc.offset)
		if lo > len(reqs) {
			lo = len(reqs)
		}
		checkLosslessRoundTrip(t, reqs[lo:lo+tc.want], got)
	}
	// Windows over an unseekable reader work too, just unsized.
	src, err := StreamWorkloadBinWindow(unseekable{bytes.NewReader(data)}, 137, 100)
	if err != nil {
		t.Fatal(err)
	}
	got := drainChecked(t, src)
	checkLosslessRoundTrip(t, reqs[137:237], got)
	if _, err := StreamWorkloadBinWindow(bytes.NewReader(data), -1, 5); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// TestBinShardedWindowsCoverTrace: partitioning the record space into
// contiguous windows reproduces the whole trace exactly once — the
// property the multi-process coordinator will rely on.
func TestBinShardedWindowsCoverTrace(t *testing.T) {
	reqs := msRequests(t, 301)
	var buf bytes.Buffer
	if err := writeWorkloadBin(&buf, workload.NewSliceSource(reqs), 2<<10); err != nil {
		t.Fatal(err)
	}
	const shards = 4
	var all []workload.Request
	for s := 0; s < shards; s++ {
		lo := int64(s) * int64(len(reqs)) / shards
		hi := int64(s+1) * int64(len(reqs)) / shards
		src, err := StreamWorkloadBinWindow(bytes.NewReader(buf.Bytes()), lo, hi-lo)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, drainChecked(t, src)...)
	}
	checkLosslessRoundTrip(t, reqs, all)
}

// corrupt returns a copy of data with the byte at off XORed.
func corrupt(data []byte, off int) []byte {
	out := append([]byte(nil), data...)
	out[off] ^= 0x5a
	return out
}

// TestBinCorruptionTable feeds the reader a battery of damaged traces and
// requires every one to fail with an error naming a byte offset (or the
// specific structural fault) rather than panicking or succeeding.
func TestBinCorruptionTable(t *testing.T) {
	reqs := sampleRequests(t, 50)
	data := binBytes(t, reqs)
	// The first chunk's frame starts right after the 8-byte header; its
	// payload follows the 12-byte frame.
	payloadLen := int(binary.LittleEndian.Uint32(data[8:12]))

	reframe := func(mutate func(frame []byte)) []byte {
		out := append([]byte(nil), data...)
		mutate(out[8:20])
		return out
	}
	cases := []struct {
		name string
		data []byte
		want string // substring the error must contain
	}{
		{"empty", nil, "header"},
		{"short header", data[:5], "header"},
		{"bad magic", corrupt(data, 0), "magic"},
		{"bad version", corrupt(data, 4), "version"},
		{"truncated frame", data[:14], "offset 8"},
		{"payload cap exceeded", reframe(func(f []byte) {
			binary.LittleEndian.PutUint32(f[0:4], binMaxChunk+1)
		}), "offset 8"},
		{"record count zero", reframe(func(f []byte) {
			binary.LittleEndian.PutUint32(f[4:8], 0)
		}), "offset 8"},
		{"record count impossible", reframe(func(f []byte) {
			binary.LittleEndian.PutUint32(f[4:8], uint32(payloadLen))
		}), "offset 8"},
		{"payload checksum", corrupt(data, 20+payloadLen/2), "checksum"},
		{"truncated payload", data[:20+payloadLen/2], "offset 8"},
		{"truncated in file table", data[:len(data)-binTrailerLen-5], "file table"},
		{"file table checksum", corrupt(data, len(data)-binTrailerLen-5), "file table"},
		{"truncated at trailer", data[:len(data)-binTrailerLen+6], "trailer"},
		{"trailer count", corrupt(data, len(data)-binTrailerLen+2), "trailer"},
		{"trailer table offset", corrupt(data, len(data)-binTrailerLen+10), "trailer"},
		{"trailer checksum", corrupt(data, len(data)-2), "trailer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := StreamWorkloadBin(unseekable{bytes.NewReader(tc.data)})
			if err == nil {
				for {
					if _, _, ok := src.Next(); !ok {
						break
					}
				}
				err = src.Err()
			}
			if err == nil {
				t.Fatal("corrupt trace read without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// The seekable open path must reject trailer damage up front.
			if strings.HasPrefix(tc.name, "trailer") || strings.HasPrefix(tc.name, "truncated at") {
				if _, err := StreamWorkloadBin(bytes.NewReader(tc.data)); err == nil {
					t.Fatal("seekable open accepted a damaged trailer")
				}
			}
		})
	}
}

// binTableDamage returns copies of data, a bin trace of at least three
// files, with its file table damaged each way the census reader refuses,
// and the text its error must carry. Past the first two, each copy
// reseals the table's CRC, so the damage reaches the entry checks.
func binTableDamage(data []byte) []struct {
	name, want string
	data       []byte
} {
	at := int(binary.LittleEndian.Uint64(data[len(data)-binTrailerLen+8:]))
	entries := at + binFrameLen
	damage := func(mutate func(entries []byte)) []byte {
		out := append([]byte(nil), data...)
		e := out[entries : len(out)-binTrailerLen]
		mutate(e)
		binary.LittleEndian.PutUint32(out[at+8:], crc32.ChecksumIEEE(e))
		return out
	}
	records := binary.LittleEndian.Uint64(data[len(data)-binTrailerLen:])
	first := func(k int, v uint64) func([]byte) {
		return func(e []byte) { binary.LittleEndian.PutUint64(e[k*binEntryLen+30:], v) }
	}
	return []struct {
		name, want string
		data       []byte
	}{
		{"truncated", "not whole", append(append([]byte(nil), data[:entries+5]...), data[entries+6:]...)},
		{"checksum", "checksum mismatch", corrupt(data, entries+binEntryLen+3)},
		{"first not ascending", "not after file 1", damage(func(e []byte) {
			copy(e[2*binEntryLen+30:], e[binEntryLen+30:binEntryLen+38])
		})},
		{"first out of range", "outside the trace", damage(first(2, records))},
		{"unknown class", "unknown file class", damage(func(e []byte) { e[binEntryLen+28] = byte(workload.NumFileClasses) })},
		{"unknown protocol", "unknown protocol", damage(func(e []byte) { e[binEntryLen+29] = byte(workload.NumProtocols) })},
		{"negative size", "negative size", damage(func(e []byte) { e[binEntryLen+23] = 0x80 })},
	}
}

// TestBinTableDamage: every damaged file table is an error naming it,
// never a panic, and a v1 trace — one with no table — is refused by the
// version check. (TestCensusMatchesWorkloadCensus in internal/distrib
// pins what an intact table holds.)
func TestBinTableDamage(t *testing.T) {
	data := binBytes(t, sampleRequests(t, 60))
	if _, err := readBinCensus(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range binTableDamage(data) {
		_, err := readBinCensus(bytes.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), "file table") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error naming the file table and %q", tc.name, err, tc.want)
		}
	}
	v1 := append([]byte(nil), data...)
	v1[4] = 1
	if _, err := readBinCensus(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "unsupported bin version 1") {
		t.Fatalf("a v1 trace: %v, want the version refused", err)
	}
}

// TestBinRecordErrorsNameOffset damages a record's payload in a way that
// survives the CRC check being recomputed, proving decode-level errors
// carry the record index and byte offset.
func TestBinRecordErrorsNameOffset(t *testing.T) {
	reqs := sampleRequests(t, 10)
	data := binBytes(t, reqs)
	payloadLen := int(binary.LittleEndian.Uint32(data[8:12]))
	// Sabotage record 0's ISP byte (payload offset 36), then recompute the
	// chunk CRC so the damage reaches the decoder.
	out := append([]byte(nil), data...)
	out[20+36] = 0xee
	binary.LittleEndian.PutUint32(out[16:20], crc32.ChecksumIEEE(out[20:20+payloadLen]))
	src, err := StreamWorkloadBin(unseekable{bytes.NewReader(out)})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, ok := src.Next(); !ok {
			break
		}
	}
	err = src.Err()
	if err == nil {
		t.Fatal("bad ISP byte decoded without error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "record 0") || !strings.Contains(msg, "offset 20") {
		t.Fatalf("error %q does not name record 0 at offset 20", msg)
	}
}

// TestBinDecodeAllocFree: once the identity pool is warm, decoding a
// record allocates nothing.
func TestBinDecodeAllocFree(t *testing.T) {
	// A small population revisited many times: identities warm up fast.
	reqs := sampleRequests(t, 2800)
	data := binBytes(t, reqs)
	src, err := StreamWorkloadBin(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ { // warm the pool and the payload buffer
		if _, _, ok := src.Next(); !ok {
			t.Fatalf("stream ended at %d", i)
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		if _, _, ok := src.Next(); !ok {
			t.Fatal("stream ended inside measurement window")
		}
	})
	if avg > 0.05 {
		t.Fatalf("steady-state bin decode allocates %.3f objects/record, want 0", avg)
	}
}

func TestDetectWorkloadFormat(t *testing.T) {
	reqs := edgeRequests()
	var csvBuf, jsonlBuf bytes.Buffer
	if err := WriteWorkloadCSV(&csvBuf, reqs); err != nil {
		t.Fatal(err)
	}
	if err := WriteWorkloadJSONL(&jsonlBuf, reqs); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		prefix []byte
		path   string
		want   string
	}{
		{binBytes(t, reqs)[:16], "trace.dat", "bin"},
		{csvBuf.Bytes()[:16], "trace.dat", "csv"},
		{jsonlBuf.Bytes()[:16], "trace.dat", "jsonl"},
		{[]byte("  {\"user_id\":1}"), "x", "jsonl"}, // leading whitespace
		{nil, "trace.bin", "bin"},
		{nil, "trace.ODRB", "bin"},
		{nil, "trace.jsonl", "jsonl"},
		{nil, "trace.ndjson", "jsonl"},
		{nil, "trace.csv", "csv"},
		{[]byte("garbage"), "trace.dat", ""},
	}
	for _, tc := range cases {
		if got := DetectWorkloadFormat(tc.prefix, tc.path); got != tc.want {
			t.Errorf("DetectWorkloadFormat(%q, %q) = %q, want %q", tc.prefix, tc.path, got, tc.want)
		}
	}
}

func TestOpenWorkloadFile(t *testing.T) {
	reqs := normalizeLossy(msRequests(t, 120))
	dir := t.TempDir()
	for _, format := range []string{"csv", "jsonl", "bin"} {
		var buf bytes.Buffer
		if err := WriteWorkloadStream(&buf, format, workload.NewSliceSource(reqs)); err != nil {
			t.Fatal(err)
		}
		// A neutral extension forces content sniffing.
		path := dir + "/trace-" + format + ".dat"
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		src, detected, closer, err := OpenWorkloadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if detected != format {
			t.Fatalf("detected %q, want %q", detected, format)
		}
		if format == "bin" {
			if sz, ok := src.(workload.Sizer); !ok || sz.TotalRequests() != len(reqs) {
				t.Fatalf("bin file source lost Sizer (ok=%v)", ok)
			}
		}
		back := drainChecked(t, src)
		closer.Close()
		checkEdgeRoundTrip(t, reqs, back)
	}
	if _, _, _, err := OpenWorkloadFile(dir + "/nope.dat"); err == nil {
		t.Fatal("missing file opened")
	}
	if err := os.WriteFile(dir+"/mystery.dat", []byte("????????"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenWorkloadFile(dir + "/mystery.dat"); err == nil || !strings.Contains(err.Error(), "detect") {
		t.Fatalf("undetectable file error = %v", err)
	}
}

// BenchmarkTraceCodec measures encode and decode throughput for all three
// workload trace formats over the same generated request sample.
func BenchmarkTraceCodec(b *testing.B) {
	tr, err := workload.Generate(workload.DefaultConfig(2000, 77))
	if err != nil {
		b.Fatal(err)
	}
	reqs := tr.Requests
	for _, format := range []string{"csv", "jsonl", "bin"} {
		var encoded bytes.Buffer
		if err := WriteWorkloadStream(&encoded, format, workload.NewSliceSource(reqs)); err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+format, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(encoded.Len()))
			for i := 0; i < b.N; i++ {
				if err := WriteWorkloadStream(io.Discard, format, workload.NewSliceSource(reqs)); err != nil {
					b.Fatal(err)
				}
			}
			reportRecRate(b, len(reqs))
		})
		b.Run("decode/"+format, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(encoded.Len()))
			for i := 0; i < b.N; i++ {
				src, err := StreamWorkload(bytes.NewReader(encoded.Bytes()), format)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					if _, _, ok := src.Next(); !ok {
						break
					}
					n++
				}
				if err := src.Err(); err != nil {
					b.Fatal(err)
				}
				if n != len(reqs) {
					b.Fatalf("decoded %d of %d records", n, len(reqs))
				}
			}
			reportRecRate(b, len(reqs))
		})
	}
}

func reportRecRate(b *testing.B, recs int) {
	b.ReportMetric(float64(recs)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
}

// BenchmarkTraceBuildStages times the three steps of a trace build that
// run on GOMAXPROCS goroutines, over a generated week of ~36k records:
// the generator's plan (GenerateStream), HashWorkload over a bin trace as
// it is decoded, and the rewrite of that trace as CSV. Run it at -cpu 1 to
// see what the lanes cost on one core.
func BenchmarkTraceBuildStages(b *testing.B) {
	cfg := workload.DefaultConfig(5000, 7)
	st, err := workload.GenerateStream(cfg, workload.DefaultStreamChunk)
	if err != nil {
		b.Fatal(err)
	}
	var bin bytes.Buffer
	if err := WriteWorkloadBinStream(&bin, st.Requests()); err != nil {
		b.Fatal(err)
	}
	binSrc := func(b *testing.B) workload.RequestSource {
		src, err := StreamWorkloadBin(bytes.NewReader(bin.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		return src
	}
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := workload.GenerateStream(cfg, workload.DefaultStreamChunk); err != nil {
				b.Fatal(err)
			}
		}
		reportRecRate(b, st.TotalRequests())
	})
	b.Run("hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := HashWorkload(binSrc(b)); err != nil {
				b.Fatal(err)
			}
		}
		reportRecRate(b, st.TotalRequests())
	})
	b.Run("csv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteWorkloadCSVStream(io.Discard, binSrc(b)); err != nil {
				b.Fatal(err)
			}
		}
		reportRecRate(b, st.TotalRequests())
	})
}
