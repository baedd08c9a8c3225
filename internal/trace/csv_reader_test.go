package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"odr/internal/workload"
)

// serialCSVSource is the CSV reader as it was before it read on lanes: one
// goroutine takes each line from a csvReadBuf bufio.Reader with ReadSlice,
// decodes it in place and interns its identities, and hands the stream to
// encoding/csv at the first line that is not canonical. It is the oracle
// for the lane reader: records, identities, errors and row numbers.
type serialCSVSource struct {
	br    *bufio.Reader
	cr    *csv.Reader
	lines int
	pool  *identityPool
	pos   int
	row   int
	err   error
	done  bool
}

func serialStreamWorkloadCSV(r io.Reader) (workload.RequestSource, error) {
	s := &serialCSVSource{br: bufio.NewReaderSize(r, csvReadBuf), pool: newIdentityPool(), row: 2}
	if hdr, _ := s.br.Peek(len(csvHeaderLine)); string(hdr) == csvHeaderLine {
		s.br.Discard(len(hdr))
		s.lines = 1
		return s, nil
	}
	s.cr = csv.NewReader(s.br)
	s.cr.ReuseRecord = true
	header, err := s.cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("trace: empty workload CSV")
	}
	if err != nil {
		return nil, fmt.Errorf("trace: row 1: %w", err)
	}
	if err := checkHeader(header); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *serialCSVSource) Next() (int, workload.Request, bool) {
	if s.done {
		return 0, workload.Request{}, false
	}
	var req workload.Request
	var err error
	if s.cr == nil {
		req, err = s.nextInPlace()
	}
	if s.cr != nil {
		req, err = s.nextCSV()
	}
	if err != nil {
		s.err = fmt.Errorf("trace: row %d: %w", s.row, err)
		s.done = true
	}
	if s.done {
		return 0, workload.Request{}, false
	}
	i := s.pos
	s.pos++
	s.row++
	return i, req, true
}

func (s *serialCSVSource) nextInPlace() (workload.Request, error) {
	line, err := s.br.ReadSlice('\n')
	if len(line) == 0 && err == io.EOF {
		s.done = true
		return workload.Request{}, nil
	}
	var fields [10][]byte
	if !splitCanonical(&fields, line, err) {
		s.cr = csv.NewReader(io.MultiReader(bytes.NewReader(bytes.Clone(line)), s.br))
		s.cr.ReuseRecord = true
		s.cr.FieldsPerRecord = len(workloadHeader)
		return workload.Request{}, nil
	}
	s.lines++
	if req, ok := s.decodeFields(&fields); ok {
		return req, nil
	}
	var row [10]string
	for i, f := range fields {
		row[i] = string(f)
	}
	return s.decodeRow(row[:])
}

func (s *serialCSVSource) nextCSV() (workload.Request, error) {
	row, err := s.cr.Read()
	if err == io.EOF {
		s.done = true
		return workload.Request{}, nil
	}
	if pe, ok := err.(*csv.ParseError); ok && s.lines > 0 {
		shifted := *pe
		shifted.StartLine += s.lines
		shifted.Line += s.lines
		err = &shifted
	}
	if err != nil {
		return workload.Request{}, err
	}
	return s.decodeRow(row)
}

func (s *serialCSVSource) decodeRow(row []string) (workload.Request, error) {
	rec, err := rowToRecord(row)
	if err != nil {
		return workload.Request{}, err
	}
	req, err := rec.ToRequest()
	if err != nil {
		return workload.Request{}, err
	}
	return s.pool.intern(req), nil
}

func (s *serialCSVSource) decodeFields(f *[10][]byte) (workload.Request, bool) {
	uid, ok1 := parseCSVInt(f[0])
	isp, ok2 := lookupName(f[1], ispNames)
	bw, err := strconv.ParseFloat(string(f[2]), 64)
	ms, ok3 := parseCSVInt(f[3])
	var id workload.FileID
	ok4 := len(f[4]) == 2*len(id)
	if ok4 {
		_, err4 := hex.Decode(id[:], f[4])
		ok4 = err4 == nil
	}
	size, ok5 := parseCSVInt(f[5])
	class, ok6 := lookupName(f[6], classNames)
	proto, ok7 := lookupName(f[7], protocolNames)
	weekly, ok8 := parseCSVInt(f[9])
	fitsInt := int64(int(uid)) == uid && int64(int(weekly)) == weekly
	if !(ok1 && ok2 && err == nil && ok3 && ok4 && ok5 && size >= 0 && ok6 && ok7 && ok8 && fitsInt) {
		return workload.Request{}, false
	}
	user, ok := s.pool.users[int(uid)]
	if !ok {
		user = &workload.User{ID: int(uid), ISP: workload.ISP(isp), AccessBW: bw, ReportsBW: bw > 0}
		s.pool.users[user.ID] = user
	}
	file, ok := s.pool.files[id]
	if !ok {
		file = &workload.FileMeta{
			ID: id, Size: size,
			Class: workload.FileClass(class), Protocol: workload.Protocol(proto),
			SourceURL: string(f[8]), WeeklyRequests: int(weekly),
		}
		s.pool.files[id] = file
	}
	return workload.Request{User: user, File: file, Time: time.Duration(ms) * time.Millisecond}, true
}

func (s *serialCSVSource) Err() error { return s.err }

// blockStarts returns the offset in data at which each block the lane
// reader fills from bytes.NewReader(data) begins, header excluded.
func blockStarts(t *testing.T, data []byte) []int {
	t.Helper()
	n := min(len(data), csvReadBuf)
	if !bytes.HasPrefix(data, []byte(csvHeaderLine)) {
		t.Fatal("no canonical header")
	}
	p := &csvBlocks{r: bytes.NewReader(data[n:]), tail: data[len(csvHeaderLine):n]}
	b := &csvBlock{buf: make([]byte, csvReadBuf)}
	var starts []int
	for off := len(csvHeaderLine); p.fill(b); off += len(b.data) {
		starts = append(starts, off)
	}
	return starts
}

// lineAt returns the bounds of the line starting at off, '\n' excluded.
func lineAt(data []byte, off int) (int, int) {
	end := bytes.IndexByte(data[off:], '\n')
	if end < 0 {
		return off, len(data)
	}
	return off, off + end
}

// lineBefore returns the start of the line that ends just before off.
func lineBefore(data []byte, off int) int {
	return bytes.LastIndexByte(data[:off-1], '\n') + 1
}

// edit returns data with the line starting at off rewritten by f.
func edit(data []byte, off int, f func(fields []string) string) []byte {
	lo, hi := lineAt(data, off)
	line := f(strings.Split(string(data[lo:hi]), ","))
	return append(append(append([]byte{}, data[:lo]...), line...), data[hi:]...)
}

// quoteURL quotes a line's source URL, two bytes shorter inside the
// quotes, so the line keeps its length and goes to encoding/csv.
func quoteURL(fields []string) string {
	u := fields[8]
	fields[8] = `"` + u[:len(u)-2] + `"`
	return strings.Join(fields, ",")
}

// failingReader reads data, failing with err at byte n: every read from
// then on, or, with once, one read, after which the data goes on. With
// withData, the read that reaches n returns the error with its bytes.
type failingReader struct {
	data           []byte
	n              int // bytes to the failure; -1 once it is over
	withData, once bool
	err            error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		if r.once {
			r.n = -1
		}
		return 0, r.err
	}
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	lim := len(r.data)
	if r.n > 0 {
		lim = min(lim, r.n)
	}
	k := copy(p, r.data[:lim])
	r.data = r.data[k:]
	if r.n > 0 {
		r.n -= k
		if r.n == 0 && r.withData {
			if r.once {
				r.n = -1
			}
			return k, r.err
		}
	}
	return k, nil
}

// TestCSVLaneReaderMatchesSerial: the lane reader hands out the serial
// reader's records, identities, errors and row numbers on input around
// its block boundaries: a line that is not canonical first or last in a
// block, lines that straddle two blocks, a final line with no '\n', a
// quoted field and a declined field blocks into the stream, lines longer
// than a block, and a reader that fails inside a block.
func TestCSVLaneReaderMatchesSerial(t *testing.T) {
	var enc bytes.Buffer
	if err := WriteWorkloadCSVStream(&enc, workload.NewSliceSource(sampleRequests(t, 2800))); err != nil {
		t.Fatal(err)
	}
	base := enc.Bytes()
	starts := blockStarts(t, base)
	if len(starts) < 5 {
		t.Fatalf("%d blocks, want at least 5", len(starts))
	}
	b2, b3, b4 := starts[2], starts[3], starts[4]
	mid3 := lineBefore(base, (b3+b4)/2)

	cases := map[string][]byte{
		"canonical":                 base,
		"quoted first of block":     edit(base, b2, quoteURL),
		"quoted last of block":      edit(base, lineBefore(base, b3), quoteURL),
		"quoted after the header":   edit(base, len(csvHeaderLine), quoteURL),
		"quoted final line":         edit(base, lineBefore(base, len(base)), quoteURL),
		"quoted field with a comma": edit(base, mid3, func(f []string) string { f[8] = `"a,b"`; return strings.Join(f, ",") }),
		"bare quote":                edit(base, mid3, func(f []string) string { f[8] = `a"b`; return strings.Join(f, ",") }),
		"declined sign":             edit(base, mid3, func(f []string) string { f[0] = "+" + f[0]; return strings.Join(f, ",") }),
		"declined 19 digits":        edit(base, b3, func(f []string) string { f[5] = fmt.Sprintf("%019s", f[5]); return strings.Join(f, ",") }),
		"declined and failing":      edit(base, b2, func(f []string) string { f[5] = "-" + f[5]; return strings.Join(f, ",") }),
		"bad ISP":                   edit(base, lineBefore(base, b4), func(f []string) string { f[1] = "dialup"; return strings.Join(f, ",") }),
		"eleven fields":             edit(base, b4, func(f []string) string { return strings.Join(f, ",") + ",x" }),
		"crlf":                      edit(base, mid3, func(f []string) string { return strings.Join(f, ",") + "\r" }),
		"blank line":                append(append(append([]byte{}, base[:b3]...), '\n'), base[b3:]...),
		"final line unterminated":   bytes.TrimSuffix(base, []byte{'\n'}),
		"final quoted unterminated": bytes.TrimSuffix(edit(base, lineBefore(base, len(base)), quoteURL), []byte{'\n'}),
		"blank final line":          append(append([]byte{}, base...), '\n'),
		"long line":                 edit(base, mid3, func(f []string) string { f[8] = strings.Repeat("u", 2*csvReadBuf); return strings.Join(f, ",") }),
		"long final line":           append(append([]byte{}, base...), strings.Repeat("x", csvReadBuf+10)...),
		"header only":               []byte(csvHeaderLine),
		"header unterminated":       []byte(strings.TrimSuffix(csvHeaderLine, "\n")),
		"header quoted":             append([]byte(`"user_id"`+csvHeaderLine[len("user_id"):]), base[len(csvHeaderLine):]...),
	}
	for name, data := range cases {
		got := decodeCSVWith(StreamWorkloadCSV, data)
		want := decodeCSVWith(serialStreamWorkloadCSV, data)
		if diff := sameDecoded(got, want); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
		if want.err == "" && len(want.recs) == 0 && name != "header only" && name != "header unterminated" {
			t.Errorf("%s: the serial reader read nothing", name)
		}
	}

	errDisk := errors.New("disk read failed")
	quoted3 := edit(base, b3, quoteURL)
	for _, n := range []int{10, len(csvHeaderLine) + 5, b2, b2 + 1, mid3 + 7, b4 - 1, len(base) - 1, len(base)} {
		for _, tc := range []struct {
			data []byte
			err  error
		}{{base, errDisk}, {base, io.EOF}, {quoted3, errDisk}, {quoted3, io.EOF}} {
			data, err := tc.data, tc.err
			for _, mode := range []struct{ withData, once bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
				fails := func() io.Reader {
					return &failingReader{data: data, n: n, withData: mode.withData, once: mode.once, err: err}
				}
				got := decodeCSVWith(func(io.Reader) (workload.RequestSource, error) { return StreamWorkloadCSV(fails()) }, nil)
				want := decodeCSVWith(func(io.Reader) (workload.RequestSource, error) { return serialStreamWorkloadCSV(fails()) }, nil)
				if diff := sameDecoded(got, want); diff != "" {
					t.Errorf("a reader failing with %v at byte %d (%+v): %s", err, n, mode, diff)
				}
				if err == errDisk && !mode.once && n < len(base) && !strings.Contains(got.err, errDisk.Error()) {
					t.Errorf("a reader failing at byte %d: error %q, want the reader's", n, got.err)
				}
			}
		}
	}
	for name, r := range map[string]func(io.Reader) io.Reader{
		"one byte a read":    iotest.OneByteReader,
		"half a read":        iotest.HalfReader,
		"error with the end": iotest.DataErrReader,
	} {
		got := decodeCSVWith(func(io.Reader) (workload.RequestSource, error) { return StreamWorkloadCSV(r(bytes.NewReader(quoted3))) }, nil)
		want := decodeCSVWith(func(io.Reader) (workload.RequestSource, error) {
			return serialStreamWorkloadCSV(r(bytes.NewReader(quoted3)))
		}, nil)
		if diff := sameDecoded(got, want); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}

// settledGoroutines waits for the goroutine count to come back to before
// and reports what it came to.
func settledGoroutines(before int) int {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// TestCSVReaderGoroutines: no goroutine of the lane reader outlives a
// source that is drained, has failed, has gone to encoding/csv, or is
// closed, directly or through OpenWorkloadFile's closer.
func TestCSVReaderGoroutines(t *testing.T) {
	var enc bytes.Buffer
	if err := WriteWorkloadCSVStream(&enc, workload.NewSliceSource(sampleRequests(t, 2800))); err != nil {
		t.Fatal(err)
	}
	base := enc.Bytes()
	starts := blockStarts(t, base)
	bad := edit(base, starts[2], func(f []string) string { f[5] = "-1"; return strings.Join(f, ",") })
	quoted := edit(base, starts[2], quoteURL)
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, base, 0o644); err != nil {
		t.Fatal(err)
	}

	drain := func(src workload.RequestSource, max int) int {
		n := 0
		for ; n < max; n++ {
			if _, _, ok := src.Next(); !ok {
				break
			}
		}
		return n
	}
	open := func(data []byte) workload.RequestSource {
		src, err := StreamWorkloadCSV(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"drained", func() error {
			src := open(base)
			drain(src, len(base))
			return src.Err()
		}},
		{"failed", func() error {
			src := open(bad)
			drain(src, len(base))
			if src.Err() == nil {
				return errors.New("a negative size decoded")
			}
			return nil
		}},
		{"handed to encoding/csv", func() error {
			src := open(quoted)
			// Take records up to the quoted line, which stops the lanes,
			// and not the rest: encoding/csv reads on this goroutine.
			drain(src, strings.Count(string(quoted[:starts[2]]), "\n"))
			return src.Err()
		}},
		{"closed", func() error {
			src := open(base)
			drain(src, 10)
			return src.(io.Closer).Close()
		}},
		{"closed unread", func() error {
			return open(base).(io.Closer).Close()
		}},
		{"file closer", func() error {
			src, _, closer, err := OpenWorkloadFile(path)
			if err != nil {
				return err
			}
			drain(src, 10)
			return closer.Close()
		}},
	} {
		before := runtime.NumGoroutine()
		if err := tc.run(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if after := settledGoroutines(before); after > before {
			t.Errorf("%s: %d goroutines before, %d after", tc.name, before, after)
		}
	}
}
