package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"odr/internal/workload"
)

// The reference CSV codec: the writer and reader the in-place codec
// replaced, kept whole on encoding/csv. The fuzzers below hold the codec
// to their bytes, records, identity sharing and error texts.

// referenceWriteWorkloadCSV writes a request stream through csv.Writer,
// one FromRequest record at a time.
func referenceWriteWorkloadCSV(w io.Writer, src workload.RequestSource) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(workloadHeader); err != nil {
		return err
	}
	row := make([]string, len(workloadHeader))
	for {
		_, r, ok := src.Next()
		if !ok {
			break
		}
		rec := FromRequest(r)
		row[0] = strconv.Itoa(rec.UserID)
		row[1] = rec.ISP
		row[2] = strconv.FormatFloat(rec.AccessBW, 'f', -1, 64)
		row[3] = strconv.FormatInt(rec.TimeMS, 10)
		row[4] = rec.FileID
		row[5] = strconv.FormatInt(rec.Size, 10)
		row[6] = rec.Class
		row[7] = rec.Protocol
		row[8] = rec.SourceURL
		row[9] = strconv.Itoa(rec.Weekly)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	if err := src.Err(); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// referenceCSVSource reads every row through csv.Reader, rowToRecord and
// ToRequest.
type referenceCSVSource struct {
	cr   *csv.Reader
	pool *identityPool
	pos  int
	row  int // record number of the record about to be read; the header is row 1
	err  error
	done bool
}

func referenceStreamWorkloadCSV(r io.Reader) (workload.RequestSource, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("trace: empty workload CSV")
	}
	if err != nil {
		return nil, fmt.Errorf("trace: row 1: %w", err)
	}
	if err := checkHeader(header); err != nil {
		return nil, err
	}
	return &referenceCSVSource{cr: cr, pool: newIdentityPool(), row: 2}, nil
}

func (s *referenceCSVSource) Next() (int, workload.Request, bool) {
	if s.done {
		return 0, workload.Request{}, false
	}
	row, err := s.cr.Read()
	if err == io.EOF {
		s.done = true
		return 0, workload.Request{}, false
	}
	if err == nil {
		var rec WorkloadRecord
		if rec, err = rowToRecord(row); err == nil {
			var req workload.Request
			if req, err = rec.ToRequest(); err == nil {
				i := s.pos
				s.pos++
				s.row++
				return i, s.pool.intern(req), true
			}
		}
	}
	s.err = fmt.Errorf("trace: row %d: %w", s.row, err)
	s.done = true
	return 0, workload.Request{}, false
}

func (s *referenceCSVSource) Err() error { return s.err }

// csvDecoded is everything a CSV read hands out: the records, the
// first-seen ordinal of each record's *User and *FileMeta, and the error
// text of the open or of the stream.
type csvDecoded struct {
	recs         []workload.Request
	users, files []int
	err          string
}

func decodeCSVWith(open func(io.Reader) (workload.RequestSource, error), data []byte) csvDecoded {
	var d csvDecoded
	src, err := open(bytes.NewReader(data))
	if err != nil {
		d.err = "open: " + err.Error()
		return d
	}
	users := map[*workload.User]int{}
	files := map[*workload.FileMeta]int{}
	for {
		i, req, ok := src.Next()
		if !ok {
			break
		}
		if i != len(d.recs) {
			d.err = fmt.Sprintf("index %d, want %d", i, len(d.recs))
			return d
		}
		if _, seen := users[req.User]; !seen {
			users[req.User] = len(users)
		}
		if _, seen := files[req.File]; !seen {
			files[req.File] = len(files)
		}
		d.recs = append(d.recs, req)
		d.users = append(d.users, users[req.User])
		d.files = append(d.files, files[req.File])
	}
	if err := src.Err(); err != nil {
		d.err = err.Error()
	}
	return d
}

// sameDecoded reports the first difference between two CSV reads, or "".
func sameDecoded(got, want csvDecoded) string {
	if got.err != want.err {
		return fmt.Sprintf("error %q, want %q", got.err, want.err)
	}
	if len(got.recs) != len(want.recs) {
		return fmt.Sprintf("%d records, want %d", len(got.recs), len(want.recs))
	}
	for i := range want.recs {
		g, w := got.recs[i], want.recs[i]
		gu, wu := *g.User, *w.User
		if math.Float64bits(gu.AccessBW) != math.Float64bits(wu.AccessBW) {
			return fmt.Sprintf("record %d: access_bw %v, want %v", i, gu.AccessBW, wu.AccessBW)
		}
		gu.AccessBW, wu.AccessBW = 0, 0
		if gu != wu || *g.File != *w.File || g.Time != w.Time {
			return fmt.Sprintf("record %d: %+v %+v %v, want %+v %+v %v", i, *g.User, *g.File, g.Time, *w.User, *w.File, w.Time)
		}
		if got.users[i] != want.users[i] || got.files[i] != want.files[i] {
			return fmt.Sprintf("record %d: identities u%d f%d, want u%d f%d", i, got.users[i], got.files[i], want.users[i], want.files[i])
		}
	}
	return ""
}

// committedCorpus returns the inputs committed under testdata/fuzz/name.
func committedCorpus(tb testing.TB, name string) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", name, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, path := range paths {
		out = append(out, corpusFile(tb, path))
	}
	if len(out) == 0 {
		tb.Fatalf("no committed corpus under testdata/fuzz/%s", name)
	}
	return out
}

// corpusFile returns the input a one-value []byte corpus file holds.
func corpusFile(tb testing.TB, path string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	header, value, ok := strings.Cut(string(raw), "\n")
	value = strings.TrimSpace(value)
	if !ok || header != "go test fuzz v1" || !strings.HasPrefix(value, "[]byte(") || !strings.HasSuffix(value, ")") {
		tb.Fatalf("%s: not a one-value []byte corpus file", path)
	}
	b, err := strconv.Unquote(value[len("[]byte(") : len(value)-1])
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	return []byte(b)
}

// FuzzCSVDecodeMatchesReference: for any bytes, the CSV reader hands out
// the reference reader's records, with the same identity sharing, and
// fails with the same text.
func FuzzCSVDecodeMatchesReference(f *testing.F) {
	for _, seed := range committedCorpus(f, "FuzzCSVDecode") {
		f.Add(seed)
	}
	for _, seed := range fuzzSeeds(f, "csv") {
		f.Add(seed)
	}
	h := csvHeaderLine
	rec := "1,unicom,262144.5,1500,0102030405060708090a0b0c0d0e0f10,4096,video,http,u,3\n"
	for _, seed := range []string{
		h + rec + "\n" + rec,
		h + rec + strings.Replace(rec, "\n", "\r\n", 1) + rec,
		h + rec + strings.Replace(rec, ",u,", `,"a,""b""`+"\n"+`c",`, 1) + strings.Replace(rec, "4096", "x", 1),
		h + rec + strings.Replace(rec, ",u,", `,a"b,`, 1),
		h + rec + strings.Replace(rec, "1,", "+1,", 1) + strings.Replace(rec, "1,", " 1,", 1),
		h + strings.Replace(rec, ",3\n", ",3,4\n", 1),
		h + strings.TrimSuffix(rec, "\n"),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := decodeCSVWith(StreamWorkloadCSV, data)
		want := decodeCSVWith(referenceStreamWorkloadCSV, data)
		if diff := sameDecoded(got, want); diff != "" {
			t.Fatalf("CSV reader differs from the reference: %s", diff)
		}
	})
}

// FuzzCSVEncodeMatchesReference: for any field values — URLs that need
// quoting, any ID, any number, enum values out of range — the CSV writer
// writes the reference writer's bytes.
func FuzzCSVEncodeMatchesReference(f *testing.F) {
	f.Add(int64(7), uint8(1), 262144.5, true, int64(1500e6), []byte{1, 2, 3}, int64(4096), uint8(0), uint8(2), "http://e.net/a", int64(3))
	f.Add(int64(-1), uint8(9), math.NaN(), true, int64(-1), []byte(nil), int64(-5), uint8(200), uint8(255), `\.`, int64(-3))
	f.Add(int64(math.MaxInt64), uint8(4), math.Inf(1), false, int64(math.MinInt64), bytes.Repeat([]byte{0xff}, 20), int64(math.MinInt64), uint8(3), uint8(4), " lead", int64(math.MinInt64))
	f.Add(int64(0), uint8(0), 1e-300, true, int64(999999), []byte{0}, int64(0), uint8(1), uint8(1), "a,\"b\"\r\nc ", int64(0))
	f.Add(int64(0), uint8(0), 0.1, true, int64(0), []byte{0}, int64(0), uint8(1), uint8(1), " em space", int64(0))
	f.Fuzz(func(t *testing.T, uid int64, isp uint8, bw float64, reports bool, ns int64, id []byte, size int64,
		class, proto uint8, url string, weekly int64) {
		r := workload.Request{
			User: &workload.User{ID: int(uid), ISP: workload.ISP(isp), AccessBW: bw, ReportsBW: reports},
			File: &workload.FileMeta{
				Size: size, Class: workload.FileClass(class), Protocol: workload.Protocol(proto),
				SourceURL: url, WeeklyRequests: int(weekly),
			},
			Time: time.Duration(ns),
		}
		copy(r.File.ID[:], id)
		reqs := append(edgeRequests(), r)
		var got, want bytes.Buffer
		if err := WriteWorkloadCSVStream(&got, workload.NewSliceSource(reqs)); err != nil {
			t.Fatal(err)
		}
		if err := referenceWriteWorkloadCSV(&want, workload.NewSliceSource(reqs)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("CSV writer differs from the reference:\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
	})
}

// serialHash is HashWorkload's reference: SHA-256 over appendBinRecord of
// every record, on the calling goroutine.
func serialHash(reqs []workload.Request) string {
	h := sha256.New()
	for _, r := range reqs {
		h.Write(appendBinRecord(nil, r))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWriteRecordsBatchBoundaries: the CSV writer writes the reference
// writer's bytes and HashWorkload hashes to the serial reference at every
// batch boundary, whether the batches are formatted on one goroutine or
// several.
func TestWriteRecordsBatchBoundaries(t *testing.T) {
	const b = recordBatch
	all := append(edgeRequests(), sampleRequests(t, 3*b+7)...)[:3*b+7]
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, b - 1, b, b + 1, 3*b + 7} {
			reqs := all[:n]
			var got, want bytes.Buffer
			if err := WriteWorkloadCSVStream(&got, workload.NewSliceSource(reqs)); err != nil {
				t.Fatal(err)
			}
			if err := referenceWriteWorkloadCSV(&want, workload.NewSliceSource(reqs)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("GOMAXPROCS %d, %d records: CSV writer differs from the reference", procs, n)
			}
			hash, hn, err := HashWorkload(workload.NewSliceSource(reqs))
			if err != nil || hn != n || hash != serialHash(reqs) {
				t.Errorf("GOMAXPROCS %d, %d records: HashWorkload = %s, %d, %v; want %s, %d",
					procs, n, hash, hn, err, serialHash(reqs), n)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// failAfter accepts k bytes, then fails every write.
type failAfter struct {
	left   int
	err    error
	writes int // writes after the first failure
	failed bool
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.failed {
		w.writes++
		return 0, w.err
	}
	if len(p) > w.left {
		w.failed = true
		return w.left, w.err
	}
	w.left -= len(p)
	return len(p), nil
}

// pulls counts the records taken from a slice and fails the stream with
// err at record failAt (never when failAt is negative).
type pulls struct {
	reqs   []workload.Request
	failAt int
	err    error
	n      int
}

func (s *pulls) Next() (int, workload.Request, bool) {
	if s.n == len(s.reqs) || s.n == s.failAt {
		return 0, workload.Request{}, false
	}
	s.n++
	return s.n - 1, s.reqs[s.n-1], true
}

func (s *pulls) Err() error {
	if s.n == s.failAt {
		return s.err
	}
	return nil
}

// TestWriteRecordsErrors: a writer failing after k bytes — not at all,
// mid-batch, at the last byte — ends the CSV write with its error, nothing
// more is written, at most two batches per lane are pulled past the
// failing one, and no goroutine stays behind. A source failing at record
// k ends the CSV write and the hash with its error, and what reached the
// writer is a prefix of the whole output.
func TestWriteRecordsErrors(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	sample := sampleRequests(t, 2000)
	reqs := make([]workload.Request, 0, 20*recordBatch)
	for len(reqs) < cap(reqs) {
		reqs = append(reqs, sample[:min(len(sample), cap(reqs)-len(reqs))]...)
	}
	var whole bytes.Buffer
	if err := referenceWriteWorkloadCSV(&whole, workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	full := whole.Len()
	// batchEnd[m] is the byte offset where batch m's rows end.
	batchEnd := []int{len(csvHeaderLine)}
	for m := 0; m < len(reqs)/recordBatch; m++ {
		end := batchEnd[len(batchEnd)-1]
		for _, r := range reqs[m*recordBatch : (m+1)*recordBatch] {
			end += len(appendCSVRow(nil, r))
		}
		batchEnd = append(batchEnd, end)
	}
	errDisk := errors.New("disk full")
	for _, k := range []int{full, (batchEnd[3] + batchEnd[4]) / 2, full - 1} {
		before := runtime.NumGoroutine()
		src := &pulls{reqs: reqs, failAt: -1}
		w := &failAfter{left: k, err: errDisk}
		err := WriteWorkloadCSVStream(w, src)
		if k == full {
			if err != nil || w.failed {
				t.Fatalf("a writer taking all %d bytes: %v", full, err)
			}
			continue
		}
		if !errors.Is(err, errDisk) {
			t.Fatalf("fail after %d of %d bytes: error %v, want the writer's", k, full, err)
		}
		if w.writes != 0 {
			t.Errorf("fail after %d bytes: %d writes after the failure", k, w.writes)
		}
		failed := 0 // the batch whose write failed
		for batchEnd[failed+1] <= k {
			failed++
		}
		if bound := (failed + 2*procs) * recordBatch; src.n > bound {
			t.Errorf("fail after %d bytes, in batch %d: %d records pulled, want at most %d", k, failed, src.n, bound)
		}
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("fail after %d bytes: %d goroutines before, %d after", k, before, after)
		}
	}

	errSource := errors.New("bad record")
	for _, k := range []int{0, 1, recordBatch, 5*recordBatch + 3} {
		var got bytes.Buffer
		if err := WriteWorkloadCSVStream(&got, &pulls{reqs: reqs, failAt: k, err: errSource}); !errors.Is(err, errSource) {
			t.Fatalf("source failing at record %d: CSV error %v, want the source's", k, err)
		}
		if !bytes.HasPrefix(whole.Bytes(), got.Bytes()) {
			t.Errorf("source failing at record %d: the %d CSV bytes written are not a prefix of the whole output", k, got.Len())
		}
		if _, n, err := HashWorkload(&pulls{reqs: reqs, failAt: k, err: errSource}); !errors.Is(err, errSource) || n != k {
			t.Errorf("source failing at record %d: HashWorkload = %d records, %v; want %d and the source's error", k, n, err, k)
		}
	}
}
