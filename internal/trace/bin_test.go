package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"odr/internal/workload"
)

// unseekable hides the io.ReadSeeker face of a bytes.Reader so tests can
// check that a bin reader refuses a plain stream.
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
	if err := WriteWorkloadBinStream(&buf, workload.NewSliceSource(reqs)); err != nil {
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
		// Ord says where a decoder met the identity; it is not trace data.
		au, bu, af, bf := *a.User, *b.User, *a.File, *b.File
		au.Ord, bu.Ord, af.Ord, bf.Ord = 0, 0, 0, 0
		if au != bu {
			t.Fatalf("record %d: user not lossless: %+v vs %+v", i, a.User, b.User)
		}
		if af != bf {
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
	back, err := collect(StreamWorkloadBin(bytes.NewReader(binBytes(t, reqs))))
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

// TestBinSizer: a bin source knows its record count from the trailer.
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
}

// TestBinWindow checks (offset, limit) windows against the full slice,
// including windows spanning chunk boundaries (the trace is written with a
// tiny chunk target so it has many chunks) and degenerate windows.
func TestBinWindow(t *testing.T) {
	reqs := msRequests(t, 400)
	var buf bytes.Buffer
	if err := writeWorkloadBin(&buf, workload.NewSliceSource(reqs), 1<<8); err != nil {
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
	if _, err := StreamWorkloadBinWindow(bytes.NewReader(data), -1, 5); err == nil {
		t.Fatal("negative offset accepted")
	}

	// Windows that start at a chunk boundary, just past one, and just
	// before one: every record is the full stream's at its index, and its
	// identities are the file table's.
	starts := chunkStarts(data)
	if len(starts) < 4 {
		t.Fatalf("the trace has %d chunks, want at least 4", len(starts))
	}
	var windows [][2]int64
	for _, b := range starts[1:4] {
		windows = append(windows, [2]int64{b, 50}, [2]int64{b + 7, 60}, [2]int64{b - 1, 2})
	}
	for _, w := range windows {
		checkWindow(t, data, w[0], w[1])
	}
}

// chunkStarts returns the index of the record each chunk of a bin trace
// starts at.
func chunkStarts(data []byte) []int64 {
	var starts []int64
	off, rec := binHeaderLen, int64(0)
	for {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n == 0 {
			return starts
		}
		starts = append(starts, rec)
		rec += int64(binary.LittleEndian.Uint32(data[off+4:]))
		off += binFrameLen + n
	}
}

// checkWindow reads the window [offset, offset+limit) of a bin trace over
// a seekable reader and requires each record to equal the full stream's
// at the same index, field by field — SourceURL and Ord included — and
// each record's file and user to be the file table's identities for their
// ordinals, built at open. It returns the window's records.
func checkWindow(t *testing.T, data []byte, offset, limit int64) []workload.Request {
	t.Helper()
	full, err := collect(StreamWorkloadBin(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	src, err := StreamWorkloadBinWindow(bytes.NewReader(data), offset, limit)
	if err != nil {
		t.Fatal(err)
	}
	got := drainChecked(t, src)
	s := src.(*binSource)
	for k, r := range got {
		w := full[offset+int64(k)]
		if *r.User != *w.User || *r.File != *w.File || r.Time != w.Time {
			t.Fatalf("window(%d,%d) record %d: %+v %+v %v, the full stream has %+v %+v %v",
				offset, limit, k, *r.User, *r.File, r.Time, *w.User, *w.File, w.Time)
		}
		if r.File != s.files[r.File.Ord-1] || r.User != &s.users[r.User.Ord-1] {
			t.Fatalf("window(%d,%d) record %d: its file or user is not the file table's identity for its ordinal", offset, limit, k)
		}
	}
	return got
}

// TestBinShardedWindowsCoverTrace: partitioning the record space into
// contiguous windows reproduces the whole trace exactly once — the
// property the multi-process coordinator will rely on.
func TestBinShardedWindowsCoverTrace(t *testing.T) {
	reqs := msRequests(t, 301)
	var buf bytes.Buffer
	if err := writeWorkloadBin(&buf, workload.NewSliceSource(reqs), 1<<9); err != nil {
		t.Fatal(err)
	}
	const shards = 4
	var all []workload.Request
	for s := 0; s < shards; s++ {
		lo := int64(s) * int64(len(reqs)) / shards
		hi := int64(s+1) * int64(len(reqs)) / shards
		all = append(all, checkWindow(t, buf.Bytes(), lo, hi-lo)...)
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
// specific structural fault) rather than panicking or succeeding. A trace
// over a plain stream is refused: the reader needs a seekable file.
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
	// recounted is data with its trailer claiming one record more, the
	// trailer's CRC resealed over the claim.
	recounted := append([]byte(nil), data...)
	trailer := recounted[len(recounted)-binTrailerLen:]
	binary.LittleEndian.PutUint64(trailer, uint64(len(reqs)+1))
	binary.LittleEndian.PutUint32(trailer[16:], crc32.ChecksumIEEE(trailer[:16]))
	tableAt := int(binary.LittleEndian.Uint64(data[len(data)-binTrailerLen+8:]))
	cases := []struct {
		name  string
		data  []byte
		want  string // substring the error must contain
		plain bool   // read over a plain stream, not a seekable reader
	}{
		{"empty", nil, "header", false},
		{"short header", data[:5], "header", false},
		{"bad magic", corrupt(data, 0), "magic", false},
		{"bad version", corrupt(data, 4), "version", false},
		{"truncated frame", data[:14], "truncated", false},
		{"payload cap exceeded", reframe(func(f []byte) {
			binary.LittleEndian.PutUint32(f[0:4], binMaxChunk+1)
		}), "offset 8", false},
		{"record count zero", reframe(func(f []byte) {
			binary.LittleEndian.PutUint32(f[4:8], 0)
		}), "offset 8", false},
		{"record count impossible", reframe(func(f []byte) {
			binary.LittleEndian.PutUint32(f[4:8], uint32(payloadLen))
		}), "offset 8", false},
		{"payload past the file table", reframe(func(f []byte) {
			binary.LittleEndian.PutUint32(f[0:4], uint32(tableAt-20+1))
		}), "past the file table", false},
		{"payload checksum", corrupt(data, 20+payloadLen/2), "checksum", false},
		{"truncated payload", data[:20+payloadLen/2], "trailer", false},
		{"truncated in file table", data[:len(data)-binTrailerLen-5], "trailer", false},
		{"file table checksum", corrupt(data, len(data)-binTrailerLen-5), "file table", false},
		{"truncated at trailer", data[:len(data)-binTrailerLen+6], "trailer", false},
		{"trailer count", corrupt(data, len(data)-binTrailerLen+2), "trailer", false},
		{"resealed trailer count", recounted, "trailer claims 51 records", false},
		{"trailer table offset", corrupt(data, len(data)-binTrailerLen+10), "trailer", false},
		{"trailer checksum", corrupt(data, len(data)-2), "trailer", false},
		{"unseekable", data, "seekable file", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r io.Reader = bytes.NewReader(tc.data)
			if tc.plain {
				r = unseekable{r}
			}
			src, err := StreamWorkloadBin(r)
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
			// Open must reject trailer damage up front.
			if strings.HasPrefix(tc.name, "trailer") || strings.HasPrefix(tc.name, "truncated at") {
				if _, err := StreamWorkloadBin(bytes.NewReader(tc.data)); err == nil {
					t.Fatal("open accepted a damaged trailer")
				}
			}
		})
	}
}

// binTableDamage returns copies of data, a bin trace of at least three
// files and three users, with its file table damaged each way a reader
// refuses, and the text its error must carry. Past the first two, each
// copy reseals the table's CRC, so the damage reaches the entry checks.
func binTableDamage(data []byte) []struct {
	name, want string
	data       []byte
} {
	at := int(binary.LittleEndian.Uint64(data[len(data)-binTrailerLen+8:]))
	f := parseBinTableFrame(data[at+4:])
	body := at + binTableFrameLen
	files := body + int(f.users)*binUserEntryLen + int(f.urlBytes)
	damage := func(mutate func(users, files []byte)) []byte {
		out := append([]byte(nil), data...)
		b := out[body : len(out)-binTrailerLen]
		mutate(b[:files-body-int(f.urlBytes)], b[files-body:])
		binary.LittleEndian.PutUint32(out[at+16:], crc32.ChecksumIEEE(b))
		return out
	}
	records := binary.LittleEndian.Uint64(data[len(data)-binTrailerLen:])
	fileFirst := func(k int, v uint64) func(_, _ []byte) {
		return func(_, e []byte) { binary.LittleEndian.PutUint64(e[k*binFileEntryLen+binFileMetaLen:], v) }
	}
	userFirst := func(k int, v uint64) func(_, _ []byte) {
		return func(e, _ []byte) { binary.LittleEndian.PutUint64(e[k*binUserEntryLen+binUserMetaLen:], v) }
	}
	file1 := binFileEntryLen // file 1's entry
	return []struct {
		name, want string
		data       []byte
	}{
		{"truncated", "its frame declares", append(append([]byte(nil), data[:files+5]...), data[files+6:]...)},
		{"checksum", "checksum mismatch", corrupt(data, files+file1+3)},
		{"first not ascending", "not after file 1", damage(func(_, e []byte) {
			copy(e[2*binFileEntryLen+binFileMetaLen:], e[file1+binFileMetaLen:file1+binFileMetaLen+8])
		})},
		{"first out of range", "outside the trace", damage(fileFirst(2, records))},
		{"unknown class", "unknown file class", damage(func(_, e []byte) { e[file1+28] = byte(workload.NumFileClasses) })},
		{"unknown protocol", "unknown protocol", damage(func(_, e []byte) { e[file1+29] = byte(workload.NumProtocols) })},
		{"negative size", "negative size", damage(func(_, e []byte) { e[file1+23] = 0x80 })},
		{"URL end out of range", "URL ends at byte", damage(func(_, e []byte) {
			binary.LittleEndian.PutUint32(e[file1+binFileMetaLen+8:], uint32(f.urlBytes)+1)
		})},
		{"user first not ascending", "not after user 1", damage(func(e, _ []byte) {
			copy(e[2*binUserEntryLen+binUserMetaLen:], e[binUserEntryLen+binUserMetaLen:2*binUserEntryLen])
		})},
		{"user first out of range", "outside the trace", damage(userFirst(2, records))},
		{"unknown ISP", "unknown ISP", damage(func(e, _ []byte) { e[binUserEntryLen+16] = byte(workload.NumISPs) })},
		{"repeated file ID", "file 2 repeats file 1's ID", damage(func(_, e []byte) {
			copy(e[2*binFileEntryLen:2*binFileEntryLen+16], e[file1:file1+16])
		})},
	}
}

// TestBinTableDamage: every damaged file table is an error naming it,
// never a panic, and a trace of an earlier version — one whose records
// carry identities inline — is refused by the version check.
// (TestCensusMatchesWorkloadCensus in internal/distrib pins what an
// intact table holds.)
func TestBinTableDamage(t *testing.T) {
	data := binBytes(t, sampleRequests(t, 60))
	if _, err := readBinTable(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range binTableDamage(data) {
		_, err := readBinTable(bytes.NewReader(tc.data))
		if err == nil || !strings.Contains(err.Error(), "file table") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error naming the file table and %q", tc.name, err, tc.want)
		}
	}
	for _, v := range []byte{1, 2, 3} {
		old := append([]byte(nil), data...)
		old[4] = v
		if _, err := readBinTable(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported bin version %d", v)) {
			t.Fatalf("a version %d trace: %v, want the version refused", v, err)
		}
	}
}

// binPerRecord encodes reqs one record per chunk, so a record is its
// chunk's whole payload, and returns the trace and each record's byte
// offset. edit, when non-nil, may replace record i's bytes; table, when
// non-nil, may rewrite the file table's frame and sections. The frames,
// the table's CRC and the trailer are sealed over what they return.
func binPerRecord(tb testing.TB, reqs []workload.Request,
	edit func(i int, rec []byte) []byte,
	table func(f *binTableFrame, users, urls, files []byte) ([]byte, []byte, []byte),
) ([]byte, []int64) {
	tb.Helper()
	enc := binEncoder{files: make(map[workload.FileID]uint32), users: make(map[int]uint32)}
	out := binary.LittleEndian.AppendUint16([]byte(binMagic), binVersion)
	out = binary.LittleEndian.AppendUint16(out, 0)
	at := make([]int64, len(reqs))
	for i, r := range reqs {
		file, user, err := enc.ordinals(r, uint64(i))
		if err != nil {
			tb.Fatal(err)
		}
		rec := appendRecord(nil, r, 0, file, user)
		if edit != nil {
			rec = edit(i, rec)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(rec)))
		out = binary.LittleEndian.AppendUint32(out, 1)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(rec))
		at[i] = int64(len(out))
		out = append(out, rec...)
	}
	f := binTableFrame{files: int64(len(enc.files)), users: int64(len(enc.users)), urlBytes: int64(enc.urls.n)}
	flat := func(b *blocks) []byte { return bytes.Join(b.chunks(), nil) }
	users, urls, files := flat(&enc.userTab), flat(&enc.urls), flat(&enc.fileTab)
	if table != nil {
		users, urls, files = table(&f, users, urls, files)
	}
	body := append(append(append([]byte(nil), users...), urls...), files...)
	tableAt := uint64(len(out))
	out = binary.LittleEndian.AppendUint32(out, 0)
	for _, v := range []int64{f.files, f.users, f.urlBytes} {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	out = append(out, body...)
	trailer := binary.LittleEndian.AppendUint64(nil, uint64(len(reqs)))
	trailer = binary.LittleEndian.AppendUint64(trailer, tableAt)
	trailer = binary.LittleEndian.AppendUint32(trailer, crc32.ChecksumIEEE(trailer))
	return append(out, trailer...), at
}

// binOrdinalCase is a trace damaged on the ordinal path, and the record
// its error must name.
type binOrdinalCase struct {
	name, want string
	data       []byte
	rec        int
	off        int64
}

// binOrdinalDamage returns traces of reqs — at least four records, each
// naming a new file and a new user, as edgeRequests' do — damaged on the
// ordinal path each way a reader refuses.
func binOrdinalDamage(tb testing.TB, reqs []workload.Request) []binOrdinalCase {
	tb.Helper()
	// record returns the trace with record i's bytes replaced by fn's.
	record := func(i int, fn func(r workload.Request) []byte) []byte {
		data, _ := binPerRecord(tb, reqs, func(k int, rec []byte) []byte {
			if k != i {
				return rec
			}
			return fn(reqs[k])
		}, nil)
		return data
	}
	// late returns the trace with records i and i+1 each naming the file
	// (or user) before their own: record i names one already seen, and
	// record i+1 introduces the one the table lists at record i.
	late := func(i int, file bool) []byte {
		data, _ := binPerRecord(tb, reqs, func(k int, rec []byte) []byte {
			f, u := uint32(k), uint32(k)
			if k == i || k == i+1 {
				if file {
					f--
				} else {
					u--
				}
			}
			return appendRecord(nil, reqs[k], 0, f, u)
		}, nil)
		return data
	}
	_, at := binPerRecord(tb, reqs, nil, nil)
	dropLastFile := func(f *binTableFrame, users, urls, files []byte) ([]byte, []byte, []byte) {
		last := reqs[len(reqs)-1].File
		f.files--
		f.urlBytes -= int64(len(last.SourceURL))
		return users, urls[:len(urls)-len(last.SourceURL)], files[:len(files)-binFileEntryLen]
	}
	last := len(reqs) - 1
	pastTable, _ := binPerRecord(tb, reqs, nil, dropLastFile)
	return []binOrdinalCase{
		{"file ordinal not yet seen", "file ordinal 4 is neither a file seen nor the next new one, 2",
			record(2, func(r workload.Request) []byte { return appendRecord(nil, r, 0, 4, 2) }), 2, at[2]},
		{"user ordinal not yet seen", "user ordinal 3 is neither a user seen nor the next new one, 1",
			record(1, func(r workload.Request) []byte { return appendRecord(nil, r, 0, 1, 3) }), 1, at[1]},
		{"file ordinal past the table", "file ordinal 5 is past the file table's 5 files", pastTable, last, at[last]},
		{"truncated file ordinal", "file ordinal: truncated varint",
			record(3, func(r workload.Request) []byte {
				return append(binary.AppendVarint(nil, r.Time.Milliseconds()), 0x80, 0x80)
			}), 3, at[3]},
		{"truncated user ordinal", "user ordinal: truncated varint",
			record(3, func(r workload.Request) []byte {
				rec := appendRecord(nil, r, 0, 3, 3)
				return append(rec[:len(rec)-1], 0xff)
			}), 3, at[3]},
		{"file first elsewhere", "file 2 first appears here, but the file table lists it at record 2", late(2, true), 3, at[3]},
		{"user first elsewhere", "user 1 first appears here, but the file table lists it at record 1", late(1, false), 2, at[2]},
	}
}

// TestBinOrdinalDamage: a record that names an ordinal not yet seen or
// past the table, a truncated varint, and a new identity the table lists
// as first appearing at another record are each an error naming the
// record and its byte offset.
func TestBinOrdinalDamage(t *testing.T) {
	for _, tc := range binOrdinalDamage(t, edgeRequests()) {
		_, err := collect(StreamWorkloadBin(bytes.NewReader(tc.data)))
		where := fmt.Sprintf("bin record %d at offset %d", tc.rec, tc.off)
		if err == nil || !strings.Contains(err.Error(), where) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error naming %q and %q", tc.name, err, where, tc.want)
		}
	}
	data, _ := binPerRecord(t, edgeRequests(), nil, nil)
	back, err := collect(StreamWorkloadBin(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	checkLosslessRoundTrip(t, edgeRequests(), back)
}

// TestBinRecordErrorsNameOffset damages a record's payload in a way that
// survives the CRC check being recomputed, proving decode-level errors
// carry the record index and byte offset.
func TestBinRecordErrorsNameOffset(t *testing.T) {
	reqs := sampleRequests(t, 10)
	data := binBytes(t, reqs)
	payloadLen := int(binary.LittleEndian.Uint32(data[8:12]))
	// Make record 0's user ordinal — past its time and its file's one-byte
	// ordinal — a varint that overflows 64 bits, running over the records
	// after it, then recompute the chunk CRC so the damage reaches the
	// decoder.
	user := 20 + len(binary.AppendVarint(nil, reqs[0].Time.Milliseconds())) + 1
	if user+binary.MaxVarintLen64 >= 20+payloadLen {
		t.Fatalf("the first chunk's %d-byte payload leaves no room to damage", payloadLen)
	}
	out := append([]byte(nil), data...)
	copy(out[user:], bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64))
	binary.LittleEndian.PutUint32(out[16:20], crc32.ChecksumIEEE(out[20:20+payloadLen]))
	_, err := collect(StreamWorkloadBin(bytes.NewReader(out)))
	if err == nil {
		t.Fatal("an overflowing user ordinal decoded without error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "record 0") || !strings.Contains(msg, "offset 20") || !strings.Contains(msg, "user ordinal: varint overflows") {
		t.Fatalf("error %q does not name record 0's user ordinal at offset 20", msg)
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
	if err := WriteWorkloadCSVStream(&csvBuf, workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	if err := WriteWorkloadJSONLStream(&jsonlBuf, workload.NewSliceSource(reqs)); err != nil {
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

// BenchmarkTraceBuildStages times the steps of a trace build that run on
// GOMAXPROCS goroutines, over a generated week of ~36k records: the
// generator's plan (GenerateStream), generation on GOMAXPROCS workers
// written as a bin trace, HashWorkload over that trace as it is decoded,
// its rewrite as CSV, and a drain of that CSV. Run it at -cpu 1 to see
// what the lanes cost on one core.
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
	b.Run("generate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteWorkloadBinStream(io.Discard, st.RequestsWorkers(runtime.GOMAXPROCS(0))); err != nil {
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
	var csvBytes bytes.Buffer
	if err := WriteWorkloadCSVStream(&csvBytes, st.Requests()); err != nil {
		b.Fatal(err)
	}
	b.Run("csvdecode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(csvBytes.Len()))
		for i := 0; i < b.N; i++ {
			src, err := StreamWorkloadCSV(bytes.NewReader(csvBytes.Bytes()))
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
			if err := src.Err(); err != nil || n != st.TotalRequests() {
				b.Fatalf("drained %d of %d records: %v", n, st.TotalRequests(), err)
			}
		}
		reportRecRate(b, st.TotalRequests())
	})
}
