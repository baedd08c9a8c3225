package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"odr/internal/workload"
)

// edgeRequests returns hand-built records covering the boundary cases the
// paper's trace actually contains: unreported bandwidth, CSV-hostile
// source URLs, and the 4-byte / 4 GB file-size extremes.
func edgeRequests() []workload.Request {
	mk := func(uid int, reports bool, size int64, url string) workload.Request {
		return workload.Request{
			User: &workload.User{
				ID: uid, ISP: workload.ISPUnicom,
				AccessBW: 250 * 1024, ReportsBW: reports,
			},
			File: &workload.FileMeta{
				ID: workload.FileIDFromIndex(uint64(uid)), Size: size,
				Class: workload.ClassVideo, Protocol: workload.ProtoHTTP,
				SourceURL: url, WeeklyRequests: 3,
			},
			Time: time.Duration(uid) * time.Second,
		}
	}
	return []workload.Request{
		mk(0, false, 1<<20, "http://origin.example.net/plain"),            // AccessBW unreported
		mk(1, true, 4, "http://origin.example.net/min"),                   // 4-byte minimum size
		mk(2, true, 4<<30, "http://origin.example.net/max"),               // 4 GB maximum size
		mk(3, true, 1<<20, `http://e.net/a,b,"quoted",c`),                 // commas and quotes
		mk(4, true, 1<<20, "http://e.net/line\nbreak?q=\"v\",w"),          // embedded newline
		mk(5, true, 1<<20, "magnet:?xt=urn:btih:00000000000000000000000"), // magnet link
	}
}

func checkEdgeRoundTrip(t *testing.T, reqs, back []workload.Request) {
	t.Helper()
	if len(back) != len(reqs) {
		t.Fatalf("round trip returned %d records, want %d", len(back), len(reqs))
	}
	for i := range reqs {
		a, b := reqs[i], back[i]
		if a.User.ID != b.User.ID || a.User.ISP != b.User.ISP ||
			a.User.ReportsBW != b.User.ReportsBW {
			t.Fatalf("record %d: user mismatch: %+v vs %+v", i, a.User, b.User)
		}
		if a.User.ReportsBW && a.User.AccessBW != b.User.AccessBW {
			t.Fatalf("record %d: bandwidth %g -> %g", i, a.User.AccessBW, b.User.AccessBW)
		}
		if !a.User.ReportsBW && b.User.AccessBW != 0 {
			t.Fatalf("record %d: unreported bandwidth decoded as %g", i, b.User.AccessBW)
		}
		if a.File.ID != b.File.ID || a.File.Size != b.File.Size ||
			a.File.SourceURL != b.File.SourceURL ||
			a.File.WeeklyRequests != b.File.WeeklyRequests {
			t.Fatalf("record %d: file mismatch:\n %+v\n %+v", i, a.File, b.File)
		}
		if a.Time != b.Time {
			t.Fatalf("record %d: time %v -> %v", i, a.Time, b.Time)
		}
	}
}

func TestEdgeCaseCSVRoundTrip(t *testing.T) {
	reqs := edgeRequests()
	var buf bytes.Buffer
	if err := WriteWorkloadCSVStream(&buf, workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	back, err := collect(StreamWorkloadCSV(&buf))
	if err != nil {
		t.Fatal(err)
	}
	checkEdgeRoundTrip(t, reqs, back)
}

func TestEdgeCaseJSONLRoundTrip(t *testing.T) {
	reqs := edgeRequests()
	var buf bytes.Buffer
	if err := WriteWorkloadJSONLStream(&buf, workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	back, err := workload.Collect(StreamWorkloadJSONL(&buf))
	if err != nil {
		t.Fatal(err)
	}
	checkEdgeRoundTrip(t, reqs, back)
}

// TestJSONLLongSourceURL exercises the bufio.Scanner 64 KB default limit
// the streaming reader must exceed: a 300 KB source_url makes a single
// JSONL line far longer than the default token cap.
func TestJSONLLongSourceURL(t *testing.T) {
	reqs := edgeRequests()[:1]
	reqs[0].File.SourceURL = "http://origin.example.net/" + strings.Repeat("x", 300<<10)
	var buf bytes.Buffer
	if err := WriteWorkloadJSONLStream(&buf, workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 300<<10 {
		t.Fatalf("test line too short: %d bytes", buf.Len())
	}
	back, err := workload.Collect(StreamWorkloadJSONL(&buf))
	if err != nil {
		t.Fatal(err)
	}
	checkEdgeRoundTrip(t, reqs, back)
}

func TestStreamReadersMatchSliceReaders(t *testing.T) {
	reqs := sampleRequests(t, 300)

	var csvBuf bytes.Buffer
	if err := WriteWorkloadStream(&csvBuf, "csv", workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	src, err := StreamWorkload(bytes.NewReader(csvBuf.Bytes()), "csv")
	if err != nil {
		t.Fatal(err)
	}
	streamed := drainChecked(t, src)
	sliced, err := collect(StreamWorkloadCSV(bytes.NewReader(csvBuf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	checkEdgeRoundTrip(t, sliced, streamed)

	var jsonlBuf bytes.Buffer
	if err := WriteWorkloadStream(&jsonlBuf, "jsonl", workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	src, err = StreamWorkload(bytes.NewReader(jsonlBuf.Bytes()), "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	streamed = drainChecked(t, src)
	sliced, err = workload.Collect(StreamWorkloadJSONL(bytes.NewReader(jsonlBuf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	checkEdgeRoundTrip(t, sliced, streamed)
}

// collect drains the source an opener returned.
func collect(src workload.RequestSource, err error) ([]workload.Request, error) {
	if err != nil {
		return nil, err
	}
	return workload.Collect(src)
}

// drainChecked collects a source, checking the index contract and identity
// interning along the way.
func drainChecked(t *testing.T, src workload.RequestSource) []workload.Request {
	t.Helper()
	users := map[int]*workload.User{}
	files := map[workload.FileID]*workload.FileMeta{}
	var out []workload.Request
	for {
		i, req, ok := src.Next()
		if !ok {
			break
		}
		if i != len(out) {
			t.Fatalf("source yielded index %d, want %d", i, len(out))
		}
		if u, seen := users[req.User.ID]; seen && u != req.User {
			t.Fatalf("user %d not interned", req.User.ID)
		}
		users[req.User.ID] = req.User
		if f, seen := files[req.File.ID]; seen && f != req.File {
			t.Fatalf("file %s not interned", req.File.ID)
		}
		files[req.File.ID] = req.File
		out = append(out, req)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStreamErrorsCarryPositions(t *testing.T) {
	reqs := edgeRequests()[:3]
	var buf bytes.Buffer
	if err := WriteWorkloadCSVStream(&buf, workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the third record (physical row 4) with a bad size field.
	lines := strings.Split(buf.String(), "\n")
	lines[3] = strings.Replace(lines[3], ",4294967296,", ",not-a-size,", 1)
	src, err := StreamWorkloadCSV(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, _, ok := src.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("read %d records before failure, want 2", n)
	}
	if err := src.Err(); err == nil || !strings.Contains(err.Error(), "row 4") {
		t.Fatalf("CSV error %v does not carry row number 4", err)
	}
	// A failed source stays failed.
	if _, _, ok := src.Next(); ok {
		t.Fatal("failed source yielded another record")
	}

	var jbuf bytes.Buffer
	if err := WriteWorkloadJSONLStream(&jbuf, workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	jlines := strings.Split(jbuf.String(), "\n")
	jlines[1] = `{"user_id": "not-an-int"}`
	jsrc := StreamWorkloadJSONL(strings.NewReader(strings.Join(jlines, "\n")))
	for {
		_, _, ok := jsrc.Next()
		if !ok {
			break
		}
	}
	if err := jsrc.Err(); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("JSONL error %v does not carry line number 2", err)
	}
}

func TestStreamWorkloadUnknownFormat(t *testing.T) {
	if _, err := StreamWorkload(strings.NewReader(""), "xml"); err == nil {
		t.Fatal("unknown read format accepted")
	}
	if err := WriteWorkloadStream(&bytes.Buffer{}, "xml", workload.NewSliceSource(nil)); err == nil {
		t.Fatal("unknown write format accepted")
	}
}

// TestWritersRefuseUnreadableRecords: a writer refuses, naming the record
// and the limit, any record its own reader would refuse — a JSONL line
// longer than the scanner takes — and writes one exactly at the limit,
// which reads back. CSV has no such limit: its reader falls back to
// encoding/csv for long lines. Nor has bin: a URL lives in the file table,
// not in a record, so one as long as a chunk payload may be, or longer,
// writes and reads back.
func TestWritersRefuseUnreadableRecords(t *testing.T) {
	// jsonlBase is the length of record 1's JSONL line with an empty URL:
	// each URL byte below adds one.
	jsonlBase := func() int {
		var buf bytes.Buffer
		r := edgeRequests()[1]
		r.File.SourceURL = ""
		if err := WriteWorkloadJSONLStream(&buf, workload.NewSliceSource([]workload.Request{r})); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	cases := []struct {
		format  string
		limit   int
		url     int // URL bytes that make the record exactly limit bytes
		overBy  int
		wantErr string
	}{
		{"bin", binMaxChunk, binMaxChunk, 0, ""},
		{"bin", binMaxChunk, binMaxChunk, 1, ""},
		{"jsonl", jsonlMaxLine, jsonlMaxLine - jsonlBase(), 0, ""},
		{"jsonl", jsonlMaxLine, jsonlMaxLine - jsonlBase(), 1, fmt.Sprintf("jsonl record 1 is a %d-byte line, beyond the %d bytes", jsonlMaxLine+1, jsonlMaxLine)},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/limit%+d", tc.format, tc.overBy), func(t *testing.T) {
			reqs := edgeRequests()[:2]
			reqs[1].File.SourceURL = strings.Repeat("x", tc.url+tc.overBy)
			var buf bytes.Buffer
			err := WriteWorkloadStream(&buf, tc.format, workload.NewSliceSource(reqs))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("writing a record %d bytes past the limit: error %v, want one containing %q", tc.overBy, err, tc.wantErr)
				}
				if buf.Len() >= tc.limit {
					t.Fatalf("the refused record was written: %d bytes out", buf.Len())
				}
				return
			}
			if err != nil {
				t.Fatalf("writing a record exactly at the limit: %v", err)
			}
			src, err := StreamWorkload(bytes.NewReader(buf.Bytes()), tc.format)
			if err != nil {
				t.Fatal(err)
			}
			back, err := workload.Collect(src)
			if err != nil {
				t.Fatalf("reading back a record exactly at the limit: %v", err)
			}
			if len(back) != len(reqs) || back[1].File.SourceURL != reqs[1].File.SourceURL {
				t.Fatalf("read back %d records, want %d with the long URL intact", len(back), len(reqs))
			}
		})
	}
}
