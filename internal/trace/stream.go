package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"odr/internal/lanes"
	"odr/internal/workload"
)

// jsonlMaxLine is the largest JSONL record the streaming reader accepts.
// bufio.Scanner's default 64 KB token limit silently truncates records with
// long source_url fields; 16 MiB is far beyond any real trace line while
// still bounding memory against corrupt input.
const jsonlMaxLine = 16 << 20

// jsonlInitBuf is the scanner's initial buffer; it grows on demand up to
// jsonlMaxLine, so ordinary traces never pay for the ceiling.
const jsonlInitBuf = 64 << 10

// csvReadBuf is the CSV reader's buffer: the longest line the in-place
// decoder takes. A longer line is still read, by the encoding/csv
// fallback.
const csvReadBuf = 64 << 10

// csvHeaderLine is the header row exactly as WriteWorkloadCSVStream
// writes it.
var csvHeaderLine = strings.Join(workloadHeader, ",") + "\n"

// csvSource streams a workload CSV a record at a time. While the input is
// canonical — the exact header line, then lines holding no '"', no '\r'
// and exactly ten comma-separated fields, none blank — each line is split
// and decoded in place in the reader's buffer. At the first line that is
// not, the rest of the stream goes to encoding/csv, which alone handles
// quoting, CRLF and blank lines; its line numbers are shifted by the lines
// already taken, so every error reads as if encoding/csv had read the
// whole stream.
type csvSource struct {
	br    *bufio.Reader
	cr    *csv.Reader // non-nil once the stream has gone to encoding/csv
	lines int         // physical lines taken in place before cr took over
	pool  *identityPool
	pos   int
	row   int // record number of the record about to be read; the header is row 1
	err   error
	done  bool
}

// StreamWorkloadCSV opens a workload CSV for record-at-a-time reading. The
// header row is validated immediately; the returned source interns users
// and files by ID exactly as ReadWorkloadCSV does, so identity-based
// consumers work unchanged. Parse failures carry the row number, counting
// the header as row 1.
func StreamWorkloadCSV(r io.Reader) (workload.RequestSource, error) {
	s := &csvSource{br: bufio.NewReaderSize(r, csvReadBuf), pool: newIdentityPool(), row: 2}
	if hdr, _ := s.br.Peek(len(csvHeaderLine)); string(hdr) == csvHeaderLine {
		s.br.Discard(len(hdr)) // cannot fail: Peek has buffered them
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

func (s *csvSource) Next() (int, workload.Request, bool) {
	if s.done {
		return 0, workload.Request{}, false
	}
	var req workload.Request
	var err error
	if s.cr == nil {
		req, err = s.nextInPlace()
	}
	if s.cr != nil { // including a line nextInPlace just handed over
		req, err = s.nextCSV()
	}
	if err != nil {
		s.fail(fmt.Errorf("trace: row %d: %w", s.row, err))
	}
	if s.done {
		return 0, workload.Request{}, false
	}
	i := s.pos
	s.pos++
	s.row++
	return i, req, true
}

// nextInPlace decodes the next line if it is canonical. Otherwise it hands
// the line, and everything after it, to encoding/csv and returns with
// s.cr set and nothing decoded.
func (s *csvSource) nextInPlace() (workload.Request, error) {
	line, err := s.br.ReadSlice('\n')
	if len(line) == 0 && err == io.EOF {
		s.done = true
		return workload.Request{}, nil
	}
	var fields [10][]byte
	if !splitCanonical(&fields, line, err) {
		s.fallBack(line)
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

// splitCanonical splits a line ReadSlice returned into its ten fields,
// reporting false when the line is not canonical: not ended by '\n' or
// EOF, blank, holding a '"' or a '\r', or not exactly ten fields.
func splitCanonical(fields *[10][]byte, line []byte, err error) bool {
	switch err {
	case nil:
		line = line[:len(line)-1]
	case io.EOF:
	default:
		return false
	}
	if len(line) == 0 || bytes.IndexByte(line, '"') >= 0 || bytes.IndexByte(line, '\r') >= 0 {
		return false
	}
	for i := 0; i < len(fields)-1; i++ {
		j := bytes.IndexByte(line, ',')
		if j < 0 {
			return false
		}
		fields[i] = line[:j]
		line = line[j+1:]
	}
	if bytes.IndexByte(line, ',') >= 0 {
		return false
	}
	fields[len(fields)-1] = line
	return true
}

// fallBack sends the rest of the stream — the line just read, then
// whatever the bufio.Reader still holds or reads — to encoding/csv. A read
// error that cut the line short comes back when encoding/csv reads on (a
// failed reader keeps failing), so the stream ends at that line, as it did
// when encoding/csv read every line.
func (s *csvSource) fallBack(line []byte) {
	s.cr = csv.NewReader(io.MultiReader(bytes.NewReader(bytes.Clone(line)), s.br))
	s.cr.ReuseRecord = true
	s.cr.FieldsPerRecord = len(workloadHeader)
}

// nextCSV reads the next record through encoding/csv.
func (s *csvSource) nextCSV() (workload.Request, error) {
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

// decodeRow decodes a record from its field strings: the reference path,
// which every row the in-place decoder declines goes through.
func (s *csvSource) decodeRow(row []string) (workload.Request, error) {
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

// decodeFields decodes a canonical line's fields in place, reporting false
// for any field it does not take exactly as decodeRow would accept it (a
// sign, a space, more than 18 digits, a bad name or ID, a negative size);
// such a row goes to decodeRow, which decodes it or names its error. The
// user and file are looked up before anything is built, so a record whose
// identities were seen before allocates nothing.
func (s *csvSource) decodeFields(f *[10][]byte) (workload.Request, bool) {
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
	// strconv.Atoi reads user_id and weekly_requests: they must fit an int.
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
	return workload.Request{
		User: user, File: file,
		Time: time.Duration(ms) * time.Millisecond,
	}, true
}

// parseCSVInt parses an optional '-' and 1 to 18 decimal digits, the form
// parseCSVInt parses an optional '-' and 1 to 18 decimal digits, the form
// WriteWorkloadCSVStream writes every integer in; 18 digits cannot
// overflow an int64.
func parseCSVInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// ispNames, classNames and protocolNames are the enum names the text
// formats carry, indexed by value.
var (
	ispNames      = enumNames[workload.ISP](workload.NumISPs)
	classNames    = enumNames[workload.FileClass](workload.NumFileClasses)
	protocolNames = enumNames[workload.Protocol](workload.NumProtocols)
)

func enumNames[E interface {
	~uint8
	String() string
}](n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = E(i).String()
	}
	return names
}

// lookupName returns the index of b in names.
func lookupName(b []byte, names []string) (uint8, bool) {
	for i, name := range names {
		if string(b) == name {
			return uint8(i), true
		}
	}
	return 0, false
}

func (s *csvSource) fail(err error) {
	s.err = err
	s.done = true
}

func (s *csvSource) Err() error { return s.err }

// jsonlSource streams workload JSON Lines a record at a time.
type jsonlSource struct {
	sc   *bufio.Scanner
	pool *identityPool
	pos  int
	line int // 1-based line of the record about to be read
	err  error
	done bool
}

// StreamWorkloadJSONL opens workload JSON Lines for record-at-a-time
// reading. The scanner is given an explicit 16 MiB line limit (the default
// 64 KB token cap truncates long source_url fields), blank lines are
// skipped, and parse failures carry the 1-based line number. Identities
// are interned as in the CSV reader.
func StreamWorkloadJSONL(r io.Reader) workload.RequestSource {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, jsonlInitBuf), jsonlMaxLine)
	return &jsonlSource{sc: sc, pool: newIdentityPool(), line: 1}
}

func (s *jsonlSource) Next() (int, workload.Request, bool) {
	for !s.done {
		if !s.sc.Scan() {
			s.done = true
			if err := s.sc.Err(); err != nil {
				s.err = fmt.Errorf("trace: line %d: %w", s.line, err)
			}
			return 0, workload.Request{}, false
		}
		line := s.sc.Bytes()
		if len(line) == 0 {
			s.line++
			continue
		}
		var rec WorkloadRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			s.fail(fmt.Errorf("trace: line %d: %w", s.line, err))
			return 0, workload.Request{}, false
		}
		req, err := rec.ToRequest()
		if err != nil {
			s.fail(fmt.Errorf("trace: line %d: %w", s.line, err))
			return 0, workload.Request{}, false
		}
		i := s.pos
		s.pos++
		s.line++
		return i, s.pool.intern(req), true
	}
	return 0, workload.Request{}, false
}

func (s *jsonlSource) fail(err error) {
	s.err = err
	s.done = true
}

func (s *jsonlSource) Err() error { return s.err }

// WriteWorkloadCSVStream writes a request stream as CSV with a header row;
// memory stays constant in stream length. Rows are formatted in batches on
// GOMAXPROCS goroutines and written in order (see writeRecords), each
// quoted exactly where encoding/csv would quote it, so the bytes are
// encoding/csv's.
func WriteWorkloadCSVStream(w io.Writer, src workload.RequestSource) error {
	if _, err := io.WriteString(w, csvHeaderLine); err != nil {
		return err
	}
	_, err := writeRecords(w, src, csvRowBytes, appendCSVRow)
	return err
}

const (
	// recordBatch is how many records writeRecords formats as one batch:
	// enough that a hand-off costs nothing next to the formatting, few
	// enough that the batches in flight stay small.
	recordBatch = 512
	// csvRowBytes and binRecordBytes size the batch buffers: a generated
	// record's CSV row is ~160 bytes and its bin record ~120.
	csvRowBytes    = 192
	binRecordBytes = 128
)

// writeRecords writes appendRecord's bytes for every record of src to w,
// in order, and returns the number of records it pulled. The calling
// goroutine pulls records into batches of recordBatch; the batches are
// formatted on GOMAXPROCS goroutines and written by one more (lanes.Write),
// so the pull — usually a decode — overlaps the formatting and the write.
// recBytes sizes the buffers. A source error is returned after the batches
// before the failing one are written.
func writeRecords(w io.Writer, src workload.RequestSource, recBytes int,
	appendRecord func([]byte, workload.Request) []byte) (int, error) {
	n := 0
	err := lanes.Write(w, lanes.Spec[[]workload.Request]{
		Lanes:    runtime.GOMAXPROCS(0),
		BufBytes: recordBatch * recBytes,
		NewBatch: func() []workload.Request { return make([]workload.Request, 0, recordBatch) },
		Fill: func(b *[]workload.Request) (bool, error) {
			batch := (*b)[:0]
			for len(batch) < recordBatch {
				_, r, ok := src.Next()
				if !ok {
					break
				}
				batch = append(batch, r)
			}
			*b = batch
			n += len(batch)
			return len(batch) > 0, src.Err()
		},
		Format: func(dst []byte, b *[]workload.Request) []byte {
			for _, r := range *b {
				dst = appendRecord(dst, r)
			}
			return dst
		},
	})
	return n, err
}

// appendCSVRow appends one request's CSV row, newline included, with the
// field values FromRequest gives.
func appendCSVRow(dst []byte, r workload.Request) []byte {
	bw := r.User.AccessBW
	if !r.User.ReportsBW {
		bw = 0
	}
	dst = strconv.AppendInt(dst, int64(r.User.ID), 10)
	dst = appendCSVField(append(dst, ','), r.User.ISP.String())
	dst = strconv.AppendFloat(append(dst, ','), bw, 'f', -1, 64)
	dst = strconv.AppendInt(append(dst, ','), r.Time.Milliseconds(), 10)
	dst = hex.AppendEncode(append(dst, ','), r.File.ID[:])
	dst = strconv.AppendInt(append(dst, ','), r.File.Size, 10)
	dst = appendCSVField(append(dst, ','), r.File.Class.String())
	dst = appendCSVField(append(dst, ','), r.File.Protocol.String())
	dst = appendCSVField(append(dst, ','), r.File.SourceURL)
	dst = strconv.AppendInt(append(dst, ','), int64(r.File.WeeklyRequests), 10)
	return append(dst, '\n')
}

// appendCSVField appends one field as encoding/csv.Writer writes it: quoted
// when it is `\.`, holds a ',', '"', '\r' or '\n', or starts with a
// Unicode space, with inner quotes doubled; an empty field is never quoted.
func appendCSVField(dst []byte, f string) []byte {
	if f == "" {
		return dst
	}
	if f != `\.` && strings.IndexByte(f, ',') < 0 && strings.IndexByte(f, '"') < 0 &&
		strings.IndexByte(f, '\r') < 0 && strings.IndexByte(f, '\n') < 0 {
		if r, _ := utf8.DecodeRuneInString(f); !unicode.IsSpace(r) {
			return append(dst, f...)
		}
	}
	dst = append(dst, '"')
	for {
		i := strings.IndexByte(f, '"')
		if i < 0 {
			break
		}
		dst = append(dst, f[:i+1]...)
		dst = append(dst, '"')
		f = f[i+1:]
	}
	dst = append(dst, f...)
	return append(dst, '"')
}

// WriteWorkloadJSONLStream writes a request stream as JSON Lines, one
// record at a time. A record whose line, newline included, is longer than
// the jsonlMaxLine a reader takes is refused before it is written.
func WriteWorkloadJSONLStream(w io.Writer, src workload.RequestSource) error {
	bw := bufio.NewWriter(w)
	var line bytes.Buffer
	enc := json.NewEncoder(&line)
	for {
		i, r, ok := src.Next()
		if !ok {
			break
		}
		line.Reset()
		if err := enc.Encode(FromRequest(r)); err != nil {
			return err
		}
		if line.Len() > jsonlMaxLine {
			return fmt.Errorf("trace: jsonl record %d is a %d-byte line, beyond the %d bytes a reader accepts", i, line.Len(), jsonlMaxLine)
		}
		if _, err := bw.Write(line.Bytes()); err != nil {
			return err
		}
	}
	if err := src.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteWorkloadStream writes a request stream in the named format ("csv",
// "jsonl", or "bin").
func WriteWorkloadStream(w io.Writer, format string, src workload.RequestSource) error {
	switch format {
	case "csv":
		return WriteWorkloadCSVStream(w, src)
	case "jsonl":
		return WriteWorkloadJSONLStream(w, src)
	case "bin":
		return WriteWorkloadBinStream(w, src)
	default:
		return fmt.Errorf("trace: unknown workload format %q", format)
	}
}

// StreamWorkload opens a workload trace in the named format for streaming
// reads — the reader-side counterpart of WriteWorkloadStream.
func StreamWorkload(r io.Reader, format string) (workload.RequestSource, error) {
	switch format {
	case "csv":
		return StreamWorkloadCSV(r)
	case "jsonl":
		return StreamWorkloadJSONL(r), nil
	case "bin":
		return StreamWorkloadBin(r)
	default:
		return nil, fmt.Errorf("trace: unknown workload format %q", format)
	}
}
