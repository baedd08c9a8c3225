package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
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
		out = append(out, []byte(b))
	}
	if len(out) == 0 {
		tb.Fatalf("no committed corpus under testdata/fuzz/%s", name)
	}
	return out
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
