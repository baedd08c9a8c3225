package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"errors"
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

// csvReadBuf is the size of the CSV reader's blocks: the longest line the
// in-place decoder takes. A longer line is still read, by the
// encoding/csv fallback.
const csvReadBuf = 64 << 10

// csvBlockLines is the starting capacity of a block's parsed lines. A
// generated record's line is ~160 bytes, so a block of them fits; a block
// of shorter lines grows its slot's slice once.
const csvBlockLines = csvReadBuf / 128

// csvHeaderLine is the header row exactly as WriteWorkloadCSVStream
// writes it.
var csvHeaderLine = strings.Join(workloadHeader, ",") + "\n"

// errLineTooLong ends a block that is csvReadBuf bytes of one line. It is
// the reader's own error, not r's, so encoding/csv reads r on after it.
var errLineTooLong = errors.New("trace: CSV line longer than the read buffer")

// csvSource streams a workload CSV a record at a time. While the input is
// canonical — the exact header line, then lines holding no '"', no '\r'
// and exactly ten comma-separated fields, none blank — lines are decoded
// in place on lanes (lanes.Read): one goroutine reads blocks of whole
// lines (csvBlocks.fill), GOMAXPROCS lanes split and parse each block's
// lines into field values (csvBlock.parse), and Next takes the blocks in
// order and interns each line's user and file, so identities are handed
// out in stream order as a serial read would. At the first line that is
// not canonical, the rest of the stream goes to encoding/csv, which alone
// handles quoting, CRLF and blank lines; its line numbers are shifted by
// the lines already taken, so every error reads as if encoding/csv had
// read the whole stream.
type csvSource struct {
	rd    *lanes.Reader[csvBlock] // nil when the header was not canonical
	fill  *csvBlocks              // rd's reader state; read only after rd.Rest
	blk   *csvBlock               // the block being taken
	at    int                     // next line of blk to take
	cr    *csv.Reader             // non-nil once the stream has gone to encoding/csv
	lines int                     // physical lines taken in place before cr took over
	pool  *identityPool
	pos   int
	row   int // record number of the record about to be read; the header is row 1
	err   error
	done  bool
}

// StreamWorkloadCSV opens a workload CSV for record-at-a-time reading. The
// header row is validated immediately; the returned source interns users
// and files by ID, so identity-based consumers work unchanged. Parse
// failures carry the row number, counting the header as row 1. The source
// reads ahead on goroutines of its own, which exit once it is drained or
// has failed; one abandoned before that is released with its Close.
func StreamWorkloadCSV(r io.Reader) (workload.RequestSource, error) {
	// Take the header as bufio.Reader.Peek would: read until the buffer
	// holds the header's length or the reader fails.
	buf := make([]byte, csvReadBuf)
	n := 0
	var err error
	for n < len(csvHeaderLine) && err == nil {
		var m int
		m, err = readOnce(r, buf[n:])
		n += m
	}
	s := &csvSource{pool: newIdentityPool(), row: 2}
	if string(buf[:min(n, len(csvHeaderLine))]) == csvHeaderLine {
		s.lines = 1
		s.fill = &csvBlocks{r: r, tail: buf[len(csvHeaderLine):n], err: err}
		s.rd = lanes.Read(lanes.ReadSpec[csvBlock]{
			Lanes: runtime.GOMAXPROCS(0),
			NewBatch: func() csvBlock {
				return csvBlock{buf: make([]byte, csvReadBuf), lines: make([]csvLine, 0, csvBlockLines)}
			},
			Fill:  s.fill.fill,
			Parse: (*csvBlock).parse,
		})
		return s, nil
	}
	// A short read's error was Peek's to return; a later one is still
	// pending, for encoding/csv to meet after the bytes read.
	next := r
	if n >= len(csvHeaderLine) {
		next = resume(r, err)
	}
	s.cr = csv.NewReader(io.MultiReader(bytes.NewReader(buf[:n]), next))
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

// readOnce reads into p once, as bufio.Reader fills its buffer: a read
// that returns nothing is retried, up to 100 times before io.ErrNoProgress.
func readOnce(r io.Reader, p []byte) (int, error) {
	for range 100 {
		if n, err := r.Read(p); n > 0 || err != nil {
			return n, err
		}
	}
	return 0, io.ErrNoProgress
}

// resume is what follows in a stream whose reader stopped with err:
// nothing after io.EOF, err again after a read error, and r itself after
// the reader's own errLineTooLong.
func resume(r io.Reader, err error) io.Reader {
	switch err {
	case nil, errLineTooLong:
		return r
	case io.EOF:
		return bytes.NewReader(nil)
	default:
		return errReader{err}
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// csvBlocks reads a CSV stream in blocks of whole lines, the reader
// goroutine's state. It reads as a csvReadBuf bufio.Reader taking lines
// with ReadSlice does: a block starts with the line the last one cut off,
// a read fills the rest, and reading stops at r's first error (but for an
// io.EOF that cut a line short, which ReadSlice reads past) or at a line
// that fills the whole block.
type csvBlocks struct {
	r    io.Reader
	tail []byte // bytes read after the last block's last '\n'
	err  error  // r's error, once it has returned one
	done bool   // the last block has been filled
}

// fill fills b with the next block. The tail it starts from lies in the
// block filled before, which lanes.Read keeps until this one is filled.
func (p *csvBlocks) fill(b *csvBlock) bool {
	if p.done {
		return false
	}
	n := copy(b.buf, p.tail)
	p.tail = nil
	for scanned := 0; ; {
		if p.err != nil {
			b.data, b.end = b.buf[:n], p.err
			// After a line io.EOF cut short, ReadSlice reads on: more may
			// come. Any other stop ends the reading.
			if p.err == io.EOF && n > 0 && b.buf[n-1] != '\n' {
				p.err = nil
			} else {
				p.done = true
			}
			return true
		}
		if i := bytes.LastIndexByte(b.buf[scanned:n], '\n'); i >= 0 {
			cut := scanned + i + 1
			b.data, b.end, p.tail = b.buf[:cut], nil, b.buf[cut:n]
			return true
		}
		if n == len(b.buf) {
			b.data, b.end, p.done = b.buf, errLineTooLong, true
			return true
		}
		var m int
		m, p.err = readOnce(p.r, b.buf[n:])
		scanned, n = n, n+m
	}
}

// csvBlock is one block of a CSV stream and what a lane parsed of it.
type csvBlock struct {
	buf  []byte // storage, csvReadBuf bytes
	data []byte // whole lines; the last block may end in a line cut short
	// end is why reading stopped after data: io.EOF, r's error, or
	// errLineTooLong. It is nil on every block but the last, and an
	// io.EOF that cut a line short, after which more was read.
	end   error
	lines []csvLine // the canonical lines before stop, in order
	stop  int       // offset in data of the first line that is not canonical; -1 if none
}

// csvLine is a canonical line's field values, as decodeFields takes them.
type csvLine struct {
	uid, ms, size, weekly int64
	bw                    float64
	id                    workload.FileID
	// text is the source URL; on a declined line, the whole line, which
	// goes to decodeRow.
	text              []byte
	isp, class, proto uint8
	declined          bool
}

// parse splits and decodes b's lines up to the first one that is not
// canonical. A line ended by '\n' is taken as splitCanonical takes a line
// ReadSlice returned with no error, and the line cut short at the end of
// the last block as one returned with b.end.
func (b *csvBlock) parse() {
	b.lines, b.stop = b.lines[:0], -1
	var fields [10][]byte
	off := 0
	for off < len(b.data) {
		line, err := b.data[off:], b.end
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line, err = line[:i+1], nil
		}
		if !splitCanonical(&fields, line, err) {
			b.stop = off
			return
		}
		l, ok := decodeFields(&fields)
		if !ok {
			l = csvLine{text: bytes.TrimSuffix(line, []byte{'\n'}), declined: true}
		}
		b.lines = append(b.lines, l)
		off += len(line)
	}
	if b.end != nil && b.end != io.EOF {
		b.stop = off // an empty line cut by a read error
	}
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

// nextInPlace takes the next parsed line. At a line that is not canonical
// it hands that line, and everything after it, to encoding/csv and returns
// with s.cr set and nothing decoded.
func (s *csvSource) nextInPlace() (workload.Request, error) {
	for s.blk == nil || s.at == len(s.blk.lines) {
		if s.blk != nil && s.blk.stop >= 0 {
			s.fallBack()
			return workload.Request{}, nil
		}
		blk, ok := s.rd.Next()
		if !ok {
			s.done = true
			return workload.Request{}, nil
		}
		s.blk, s.at = blk, 0
	}
	l := &s.blk.lines[s.at]
	s.at++
	s.lines++
	if l.declined {
		var fields [10][]byte
		splitFields(&fields, l.text)
		var row [10]string
		for i, f := range fields {
			row[i] = string(f)
		}
		return s.decodeRow(row[:])
	}
	return s.request(l), nil
}

// splitCanonical splits a line, as bufio.Reader.ReadSlice would return
// it with err, into its ten fields, reporting false when the line is not
// canonical: not ended by '\n' or EOF, blank, holding a '"' or a '\r', or
// not exactly ten fields.
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
	return splitFields(fields, line)
}

// splitFields splits line at its commas, reporting false unless it has
// exactly ten fields.
func splitFields(fields *[10][]byte, line []byte) bool {
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

// fallBack stops the block reader and sends the rest of the stream to
// encoding/csv: the line at which s.blk stopped and the rest of its block,
// every block read after it, the bytes read after those, and then the
// reader. A read error (io.EOF included) after the handed-over line ends
// the stream there, as the error bufio.Reader held back for its next read
// did; one that cut the handed-over line short was returned with it, so
// encoding/csv reads on (a failed reader keeps failing). Either way the
// stream ends where it did when encoding/csv read every line.
func (s *csvSource) fallBack() {
	b := s.blk
	parts := []io.Reader{bytes.NewReader(b.data[b.stop:])}
	end := b.end
	if end != nil && bytes.IndexByte(b.data[b.stop:], '\n') < 0 {
		end = nil // the line cut short is the one handed over
	}
	rest := s.rd.Rest()
	for i := 0; end == nil && i < len(rest); i++ {
		parts = append(parts, bytes.NewReader(rest[i].data))
		end = rest[i].end
	}
	if end == nil {
		parts = append(parts, bytes.NewReader(s.fill.tail))
	}
	parts = append(parts, resume(s.fill.r, end))
	s.cr = csv.NewReader(io.MultiReader(parts...))
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

// decodeFields decodes a canonical line's fields, reporting false for any
// field it does not take exactly as decodeRow would accept it (a sign, a
// space, more than 18 digits, a bad name or ID, a negative size); such a
// row goes to decodeRow, which decodes it or names its error.
func decodeFields(f *[10][]byte) (csvLine, bool) {
	var l csvLine
	var ok1, ok2, ok3, ok4, ok5, ok6, ok7, ok8 bool
	l.uid, ok1 = parseCSVInt(f[0])
	l.isp, ok2 = lookupName(f[1], ispNames)
	bw, err := strconv.ParseFloat(string(f[2]), 64)
	l.bw = bw
	l.ms, ok3 = parseCSVInt(f[3])
	if ok4 = len(f[4]) == 2*len(l.id); ok4 {
		_, err4 := hex.Decode(l.id[:], f[4])
		ok4 = err4 == nil
	}
	l.size, ok5 = parseCSVInt(f[5])
	l.class, ok6 = lookupName(f[6], classNames)
	l.proto, ok7 = lookupName(f[7], protocolNames)
	l.text = f[8]
	l.weekly, ok8 = parseCSVInt(f[9])
	// strconv.Atoi reads user_id and weekly_requests: they must fit an int.
	fitsInt := int64(int(l.uid)) == l.uid && int64(int(l.weekly)) == l.weekly
	return l, ok1 && ok2 && err == nil && ok3 && ok4 && ok5 && l.size >= 0 && ok6 && ok7 && ok8 && fitsInt
}

// request builds a decoded line's request. The user and file are looked
// up before anything is built, so a record whose identities were seen
// before allocates nothing.
func (s *csvSource) request(l *csvLine) workload.Request {
	user, ok := s.pool.users[int(l.uid)]
	if !ok {
		user = &workload.User{ID: int(l.uid), ISP: workload.ISP(l.isp), AccessBW: l.bw, ReportsBW: l.bw > 0}
		s.pool.users[user.ID] = user
	}
	file, ok := s.pool.files[l.id]
	if !ok {
		file = &workload.FileMeta{
			ID: l.id, Size: l.size,
			Class: workload.FileClass(l.class), Protocol: workload.Protocol(l.proto),
			SourceURL: string(l.text), WeeklyRequests: int(l.weekly),
		}
		s.pool.files[l.id] = file
	}
	return workload.Request{
		User: user, File: file,
		Time: time.Duration(l.ms) * time.Millisecond,
	}
}

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
	s.Close()
}

func (s *csvSource) Err() error { return s.err }

// Close stops the block reader's goroutines and returns once they have
// exited. A drained or failed source has already stopped them; Close is
// idempotent and returns nil.
func (s *csvSource) Close() error {
	if s.rd != nil {
		s.rd.Close()
	}
	return nil
}

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
	// record's CSV row is ~160 bytes and its canonical bin record (what
	// HashWorkload hashes) ~120.
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
	dst = appendEnumName(append(dst, ','), r.User.ISP, ispNames)
	dst = strconv.AppendFloat(append(dst, ','), bw, 'f', -1, 64)
	dst = strconv.AppendInt(append(dst, ','), r.Time.Milliseconds(), 10)
	dst = hex.AppendEncode(append(dst, ','), r.File.ID[:])
	dst = strconv.AppendInt(append(dst, ','), r.File.Size, 10)
	dst = appendEnumName(append(dst, ','), r.File.Class, classNames)
	dst = appendEnumName(append(dst, ','), r.File.Protocol, protocolNames)
	dst = appendCSVField(append(dst, ','), r.File.SourceURL)
	dst = strconv.AppendInt(append(dst, ','), int64(r.File.WeeklyRequests), 10)
	return append(dst, '\n')
}

// appendEnumName appends an enum value's name from names, the table of its
// in-range names, none of which needs quoting; a value out of range goes
// through appendCSVField as its String.
func appendEnumName[E interface {
	~uint8
	String() string
}](dst []byte, e E, names []string) []byte {
	if int(e) < len(names) {
		return append(dst, names[e]...)
	}
	return appendCSVField(dst, e.String())
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
