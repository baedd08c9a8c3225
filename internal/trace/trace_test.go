package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"odr/internal/cloud"
	"odr/internal/sim"
	"odr/internal/workload"
)

func sampleRequests(t *testing.T, n int) []workload.Request {
	t.Helper()
	tr, err := workload.Generate(workload.DefaultConfig(500, 77))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) < n {
		t.Fatalf("trace too small: %d", len(tr.Requests))
	}
	return tr.Requests[:n]
}

func TestWorkloadCSVRoundTrip(t *testing.T) {
	reqs := sampleRequests(t, 200)
	var buf bytes.Buffer
	if err := WriteWorkloadCSVStream(&buf, workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	back, err := collect(StreamWorkloadCSV(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reqs) {
		t.Fatalf("rows = %d, want %d", len(back), len(reqs))
	}
	for i := range reqs {
		a, b := reqs[i], back[i]
		if a.User.ID != b.User.ID || a.User.ISP != b.User.ISP {
			t.Fatalf("row %d: user mismatch", i)
		}
		if a.File.ID != b.File.ID || a.File.Size != b.File.Size ||
			a.File.Class != b.File.Class || a.File.Protocol != b.File.Protocol ||
			a.File.SourceURL != b.File.SourceURL ||
			a.File.WeeklyRequests != b.File.WeeklyRequests {
			t.Fatalf("row %d: file mismatch", i)
		}
		if a.Time.Milliseconds() != b.Time.Milliseconds() {
			t.Fatalf("row %d: time mismatch", i)
		}
	}
}

func TestWorkloadJSONLRoundTrip(t *testing.T) {
	reqs := sampleRequests(t, 200)
	var buf bytes.Buffer
	if err := WriteWorkloadJSONLStream(&buf, workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	back, err := workload.Collect(StreamWorkloadJSONL(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(reqs) {
		t.Fatalf("rows = %d", len(back))
	}
	for i := range reqs {
		if reqs[i].File.ID != back[i].File.ID {
			t.Fatalf("row %d: file mismatch", i)
		}
	}
}

func TestReadDeduplicatesIdentities(t *testing.T) {
	reqs := sampleRequests(t, 500)
	var buf bytes.Buffer
	if err := WriteWorkloadCSVStream(&buf, workload.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	back, err := collect(StreamWorkloadCSV(&buf))
	if err != nil {
		t.Fatal(err)
	}
	byUser := map[int]*workload.User{}
	byFile := map[workload.FileID]*workload.FileMeta{}
	for _, r := range back {
		if prev, ok := byUser[r.User.ID]; ok && prev != r.User {
			t.Fatal("same user ID parsed to distinct *User values")
		}
		byUser[r.User.ID] = r.User
		if prev, ok := byFile[r.File.ID]; ok && prev != r.File {
			t.Fatal("same file ID parsed to distinct *FileMeta values")
		}
		byFile[r.File.ID] = r.File
	}
}

func TestUnreportedBandwidthRoundTrips(t *testing.T) {
	u := &workload.User{ID: 1, ISP: workload.ISPUnicom, AccessBW: 999, ReportsBW: false}
	f := &workload.FileMeta{ID: workload.FileIDFromIndex(1), Size: 10,
		Class: workload.ClassVideo, Protocol: workload.ProtoHTTP, SourceURL: "http://x"}
	rec := FromRequest(workload.Request{User: u, File: f})
	if rec.AccessBW != 0 {
		t.Fatalf("unreported bandwidth leaked: %g", rec.AccessBW)
	}
	back, err := rec.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	if back.User.ReportsBW {
		t.Fatal("ReportsBW should stay false")
	}
}

// csvPinHeader, csvPinRec and csvPinID build the inputs of the pinned
// CSV reader table.
const csvPinHeader = "user_id,isp,access_bw,time_ms,file_id,size,class,protocol,source_url,weekly_requests"

const (
	csvPinID1 = "0102030405060708090a0b0c0d0e0f10"
	csvPinID2 = "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf"
)

func csvPinRec(uid, isp, id, url string) string {
	return uid + "," + isp + ",262144.5,1500," + id + ",4096,video,http," + url + ",3"
}

// describeCSVStream drains a CSV stream into one line per record — every
// decoded field, then the first-seen ordinal of the record's *User and
// *FileMeta pointers, so identity sharing is pinned too — and the
// stream's error text ("" when it ended cleanly).
func describeCSVStream(r io.Reader) ([]string, string) {
	src, err := StreamWorkloadCSV(r)
	if err != nil {
		return nil, "open: " + err.Error()
	}
	users := map[*workload.User]int{}
	files := map[*workload.FileMeta]int{}
	var recs []string
	for {
		i, req, ok := src.Next()
		if !ok {
			break
		}
		if i != len(recs) {
			return recs, fmt.Sprintf("index %d, want %d", i, len(recs))
		}
		u, seen := users[req.User]
		if !seen {
			u = len(users)
			users[req.User] = u
		}
		f, seen := files[req.File]
		if !seen {
			f = len(files)
			files[req.File] = f
		}
		url := req.File.SourceURL
		if len(url) > 48 {
			url = fmt.Sprintf("%s...(%d bytes)", url[:48], len(req.File.SourceURL))
		}
		recs = append(recs, fmt.Sprintf("%d %v %v/%v %v %v %d %v %v %q %d u%d f%d",
			req.User.ID, req.User.ISP, req.User.AccessBW, req.User.ReportsBW, req.Time,
			req.File.ID, req.File.Size, req.File.Class, req.File.Protocol, url,
			req.File.WeeklyRequests, u, f))
	}
	if err := src.Err(); err != nil {
		return recs, err.Error()
	}
	return recs, ""
}

// TestReadWorkloadCSVErrors pins what the CSV reader accepts, decodes and
// rejects, text for text: the records it hands out before stopping (with
// their identity sharing) and its exact error.
func TestReadWorkloadCSVErrors(t *testing.T) {
	h := csvPinHeader + "\n"
	ok1 := csvPinRec("1", "unicom", csvPinID1, "http://e.net/a") + "\n"
	ok2 := csvPinRec("2", "telecom", csvPinID2, "http://e.net/b") + "\n"
	cases := []struct {
		name    string
		in      string
		readErr bool // the reader fails once the input is exhausted
		want    []string
		err     string
	}{
		{name: "empty", err: "open: trace: empty workload CSV",
			in: ""},
		{name: "bad header", err: "open: trace: header has 3 fields, want 10",
			in: "a,b,c\n"},
		{name: "header only", in: h},
		{name: "header without newline", in: csvPinHeader},
		{name: "header field renamed", err: "open: trace: header field 5 is \"bytes\", want \"size\"",
			in: strings.Replace(h, "size", "bytes", 1) + ok1},
		{name: "quoted header", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
			"2 telecom 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"http://e.net/b\" 3 u1 f1",
		},
			in: `"user_id","isp","access_bw","time_ms","file_id","size","class","protocol","source_url","weekly_requests"` + "\n" + ok1 + ok2},
		{name: "crlf", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
			"2 telecom 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"http://e.net/b\" 3 u1 f1",
		},
			in: strings.ReplaceAll(h+ok1+ok2, "\n", "\r\n")},
		{name: "crlf on one record", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
			"2 telecom 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"http://e.net/b\" 3 u1 f1",
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
		},
			in: h + ok1 + strings.TrimSuffix(ok2, "\n") + "\r\n" + ok1},
		{name: "blank line between records", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
			"2 telecom 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"http://e.net/b\" 3 u1 f1",
		},
			in: h + ok1 + "\n" + ok2},
		{name: "blank line then bad size", err: "trace: row 3: size: strconv.ParseInt: parsing \"x\": invalid syntax", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
		},
			in: h + ok1 + "\n" + strings.Replace(ok2, ",4096,", ",x,", 1)},
		{name: "last record without newline", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
			"2 telecom 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"http://e.net/b\" 3 u1 f1",
		},
			in: h + ok1 + strings.TrimSuffix(ok2, "\n")},
		{name: "trailing CR at EOF", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
			"2 telecom 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"http://e.net/b\" 3 u1 f1",
		},
			in: h + ok1 + strings.TrimSuffix(ok2, "\n") + "\r"},
		{name: "quoted url then bad size", err: "trace: row 4: size: strconv.ParseInt: parsing \"4k\": invalid syntax", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
			"3 mobile 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"http://e.net/a,b \\\"q\\\"\\nnext\" 3 u1 f1",
		},
			in: h + ok1 +
				csvPinRec("3", "mobile", csvPinID2, `"http://e.net/a,b ""q""`+"\n"+`next"`) + "\n" +
				strings.Replace(ok2, ",4096,", ",4k,", 1)},
		{name: "quoted url then bare quote", err: "trace: row 5: parse error on line 6, column 74: bare \" in non-quoted-field", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
			"2 telecom 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"http://e.net/b\" 3 u1 f1",
			"3 mobile 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"http://e.net/b\" 3 u2 f1",
		},
			in: h + ok1 + ok2 +
				csvPinRec("3", "mobile", csvPinID2, `"http://e.net/a,b ""q""`+"\n"+`next"`) + "\n" +
				csvPinRec("4", "mobile", csvPinID1, `x"y`) + "\n"},
		{name: "unterminated quote", err: "trace: row 4: record on line 4; parse error on line 5, column 14: extraneous or missing \" in quoted-field", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
			"2 telecom 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"http://e.net/b\" 3 u1 f1",
		},
			in: h + ok1 + ok2 +
				csvPinRec("3", "mobile", csvPinID2, `"http://e.net/open`+"\n"+`still open`) + "\n"},
		{name: "bare quote", err: "trace: row 3: parse error on line 3, column 86: bare \" in non-quoted-field", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
		},
			in: h + ok1 + csvPinRec("3", "mobile", csvPinID2, `http://e.net/"q"`) + "\n" + ok2},
		{name: "nine fields on row 3", err: "trace: row 3: record on line 3: wrong number of fields", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
		},
			in: h + ok1 + "2,telecom,0,0," + csvPinID2 + ",5,video,http,u\n"},
		{name: "eleven fields on row 3", err: "trace: row 3: record on line 3: wrong number of fields", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
		},
			in: h + ok1 + "2,telecom,0,0," + csvPinID2 + ",5,video,http,u,1,extra\n"},
		{name: "plus user id", want: []string{
			"5 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"u\" 3 u0 f0",
		},
			in: h + csvPinRec("+5", "unicom", csvPinID1, "u") + "\n"},
		{name: "space user id", err: "trace: row 2: user_id: strconv.Atoi: parsing \" 5\": invalid syntax",
			in: h + csvPinRec(" 5", "unicom", csvPinID1, "u") + "\n"},
		{name: "overflow user id", err: "trace: row 2: user_id: strconv.Atoi: parsing \"9223372036854775808\": value out of range",
			in: h + csvPinRec("9223372036854775808", "unicom", csvPinID1, "u") + "\n"},
		{name: "max user id", want: []string{
			"9223372036854775807 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"u\" 3 u0 f0",
			"-9223372036854775808 unicom 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"u\" 3 u1 f1",
		},
			in: h + csvPinRec("9223372036854775807", "unicom", csvPinID1, "u") + "\n" +
				csvPinRec("-9223372036854775808", "unicom", csvPinID2, "u") + "\n"},
		{name: "leading zeros", want: []string{
			"7 unicom 0.5/true 12ms 0102030405060708090a0b0c0d0e0f10 42 video http \"u\" 9 u0 f0",
		},
			in: h + "007,unicom,000.50,0012," + csvPinID1 + ",0042,video,http,u,09\n"},
		{name: "exponent bandwidth", want: []string{
			"1 unicom 1000/true 0s 0102030405060708090a0b0c0d0e0f10 5 video http \"u\" 1 u0 f0",
		},
			in: h + "1,unicom,1e3,0," + csvPinID1 + ",5,video,http,u,1\n"},
		{name: "unreported bandwidth", want: []string{
			"1 unicom 0/false 0s 0102030405060708090a0b0c0d0e0f10 5 video http \"u\" 1 u0 f0",
			"2 unicom -0.5/false 0s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 5 video http \"u\" 1 u1 f1",
		},
			in: h + "1,unicom,0,0," + csvPinID1 + ",5,video,http,u,1\n" +
				"2,unicom,-0.5,0," + csvPinID2 + ",5,video,http,u,1\n"},
		{name: "long bandwidth", want: []string{
			"1 unicom 1.097337070639551e+06/true 0s 0102030405060708090a0b0c0d0e0f10 5 video http \"u\" 1 u0 f0",
			"2 unicom 0.12345678901234568/true 0s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 5 video http \"u\" 1 u1 f1",
		},
			in: h + "1,unicom,1097337.070639551,0," + csvPinID1 + ",5,video,http,u,1\n" +
				"2,unicom,0.1234567890123456789,0," + csvPinID2 + ",5,video,http,u,1\n"},
		{name: "nan bandwidth", want: []string{
			"1 unicom NaN/false 0s 0102030405060708090a0b0c0d0e0f10 5 video http \"u\" 1 u0 f0",
		},
			in: h + "1,unicom,NaN,0," + csvPinID1 + ",5,video,http,u,1\n"},
		{name: "bad bandwidth", err: "trace: row 2: access_bw: strconv.ParseFloat: parsing \"fast\": invalid syntax",
			in: h + "1,unicom,fast,0," + csvPinID1 + ",5,video,http,u,1\n"},
		{name: "bad time", err: "trace: row 2: time_ms: strconv.ParseInt: parsing \"soon\": invalid syntax",
			in: h + "1,unicom,0,soon," + csvPinID1 + ",5,video,http,u,1\n"},
		{name: "bad weekly", err: "trace: row 2: weekly_requests: strconv.Atoi: parsing \"1.5\": invalid syntax",
			in: h + "1,unicom,0,0," + csvPinID1 + ",5,video,http,u,1.5\n"},
		{name: "empty user id", err: "trace: row 2: user_id: strconv.Atoi: parsing \"\": invalid syntax",
			in: h + csvPinRec("", "unicom", csvPinID1, "u") + "\n"},
		{name: "empty url", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"\" 3 u0 f0",
		},
			in: h + csvPinRec("1", "unicom", csvPinID1, "") + "\n"},
		{name: "raw bytes in url", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"u\\x00\\xff\\t v\" 3 u0 f0",
		},
			in: h + csvPinRec("1", "unicom", csvPinID1, "u\x00\xff\t v") + "\n"},
		{name: "uppercase id", want: []string{
			"1 unicom 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"u\" 3 u0 f0",
			"2 unicom 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"u\" 3 u1 f0",
		},
			in: h + csvPinRec("1", "unicom", strings.ToUpper(csvPinID2), "u") + "\n" +
				csvPinRec("2", "unicom", csvPinID2, "v") + "\n"},
		{name: "33-character id", err: "trace: row 3: trace: bad file ID \"0102030405060708090a0b0c0d0e0f100\": encoding/hex: odd length hex string", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
		},
			in: h + ok1 + csvPinRec("1", "unicom", csvPinID1+"0", "u") + "\n"},
		{name: "bad isp", err: "trace: row 2: workload: unknown ISP \"marsnet\"",
			in: h + csvPinRec("1", "marsnet", csvPinID1, "u") + "\n"},
		{name: "bad class", err: "trace: row 2: workload: unknown file class \"Video\"",
			in: h + "1,unicom,0,0," + csvPinID1 + ",5,Video,http,u,1\n"},
		{name: "bad protocol", err: "trace: row 2: workload: unknown protocol \"gopher\"",
			in: h + "1,unicom,0,0," + csvPinID1 + ",5,video,gopher,u,1\n"},
		{name: "bad id", err: "trace: row 2: trace: bad file ID \"xyz\": encoding/hex: invalid byte: U+0078 'x'",
			in: h + csvPinRec("1", "unicom", "xyz", "u") + "\n"},
		{name: "non-hex id", err: "trace: row 2: trace: bad file ID \"0102030405060708090a0b0c0d0e0fzz\": encoding/hex: invalid byte: U+007A 'z'",
			in: h + csvPinRec("1", "unicom", "0102030405060708090a0b0c0d0e0fzz", "u") + "\n"},
		{name: "short id", err: "trace: row 2: trace: file ID \"0102\" has 2 bytes, want 16",
			in: h + csvPinRec("1", "unicom", "0102", "u") + "\n"},
		{name: "bad size", err: "trace: row 2: size: strconv.ParseInt: parsing \"NaNx\": invalid syntax",
			in: h + "1,unicom,0,0," + csvPinID1 + ",NaNx,video,http,u,1\n"},
		{name: "negative size", err: "trace: row 2: trace: negative size -5",
			in: h + "1,unicom,0,0," + csvPinID1 + ",-5,video,http,u,1\n"},
		{name: "bad isp wins over bad size", err: "trace: row 2: workload: unknown ISP \"marsnet\"",
			in: h + "1,marsnet,0,0," + csvPinID1 + ",-5,video,http,u,1\n"},
		{name: "repeated user with a different isp", want: []string{
			"7 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"u\" 3 u0 f0",
			"7 unicom 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"v\" 3 u0 f1",
		},
			in: h +
				csvPinRec("7", "unicom", csvPinID1, "u") + "\n" + csvPinRec("7", "telecom", csvPinID2, "v") + "\n"},
		{name: "repeated user with a bad isp", err: "trace: row 3: workload: unknown ISP \"marsnet\"", want: []string{
			"7 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"u\" 3 u0 f0",
		},
			in: h +
				csvPinRec("7", "unicom", csvPinID1, "u") + "\n" + csvPinRec("7", "marsnet", csvPinID2, "v") + "\n"},
		{name: "repeated file with a different url", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://first\" 3 u0 f0",
			"2 cernet 5/true 9ms 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://first\" 3 u1 f0",
		},
			in: h +
				csvPinRec("1", "unicom", csvPinID1, "http://first") + "\n" +
				"2,cernet,5,9," + csvPinID1 + ",1,image,ftp,http://second,8\n"},
		{name: "line longer than any buffer", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
			"3 other 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"http://e.net/xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx...(102413 bytes)\" 3 u1 f1",
			"2 telecom 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"http://e.net/xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx...(102413 bytes)\" 3 u2 f1",
		},
			in: h + ok1 +
				csvPinRec("3", "other", csvPinID2, "http://e.net/"+strings.Repeat("x", 100<<10)) + "\n" + ok2},
		{name: "read error after a full line", err: "trace: row 4: disk gone", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
			"2 telecom 262144.5/true 1.5s a0a1a2a3a4a5a6a7a8a9aaabacadaeaf 4096 video http \"http://e.net/b\" 3 u1 f1",
		},
			in: h + ok1 + ok2, readErr: true},
		{name: "read error mid-line", err: "trace: row 3: disk gone", want: []string{
			"1 unicom 262144.5/true 1.5s 0102030405060708090a0b0c0d0e0f10 4096 video http \"http://e.net/a\" 3 u0 f0",
		},
			in: h + ok1 + strings.TrimSuffix(ok2, "\n"), readErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r io.Reader = strings.NewReader(tc.in)
			if tc.readErr {
				r = io.MultiReader(r, iotest.ErrReader(errors.New("disk gone")))
			}
			got, err := describeCSVStream(r)
			if !slices.Equal(got, tc.want) || err != tc.err {
				t.Errorf("got\n\twant: %#v,\n\terr:  %q,\nwant %#v, %q", got, err, tc.want, tc.err)
			}
		})
	}
}

func TestTasksJSONLRoundTrip(t *testing.T) {
	// Run a tiny simulation to get realistic task records.
	tr, err := workload.Generate(workload.DefaultConfig(300, 99))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	c := cloud.New(cloud.DefaultConfig(0.01, 99), eng)
	c.Prewarm(tr.Files)
	c.RunTrace(tr)

	var buf bytes.Buffer
	if err := WriteTasksJSONL(&buf, c.Records()); err != nil {
		t.Fatal(err)
	}
	lines, err := ReadTasksJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(c.Records()) {
		t.Fatalf("lines = %d, want %d", len(lines), len(c.Records()))
	}
	for i, rec := range c.Records() {
		l := lines[i]
		if l.CacheHit != rec.CacheHit || l.PreSuccess != rec.PreSuccess ||
			l.Rejected != rec.Rejected || l.Privileged != rec.Privileged {
			t.Fatalf("line %d: flags mismatch", i)
		}
		if l.PreDelayMS != rec.PreDelay().Milliseconds() {
			t.Fatalf("line %d: pre delay mismatch", i)
		}
		if l.Impediment != rec.Impediment.String() {
			t.Fatalf("line %d: impediment mismatch", i)
		}
	}
}

func TestReadTasksJSONLBadInput(t *testing.T) {
	if _, err := ReadTasksJSONL(strings.NewReader("{not json")); err == nil {
		t.Fatal("expected error")
	}
}

func TestTimePrecision(t *testing.T) {
	u := &workload.User{ID: 1, ISP: workload.ISPUnicom, AccessBW: 100, ReportsBW: true}
	f := &workload.FileMeta{ID: workload.FileIDFromIndex(2), Size: 1,
		Class: workload.ClassImage, Protocol: workload.ProtoFTP}
	req := workload.Request{User: u, File: f, Time: 36*time.Hour + 123*time.Millisecond}
	back, err := FromRequest(req).ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	if back.Time != req.Time {
		t.Fatalf("time %v != %v", back.Time, req.Time)
	}
}
