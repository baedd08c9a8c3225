package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"odr/internal/workload"
)

// The bin workload format is the paper-scale trace encoding: little-endian
// fixed-stride records with a length-prefixed URL, framed into CRC32-guarded
// chunks, closed by a record-count trailer. It exists because csv/jsonl pay
// text encode/decode on every record and cannot be windowed; bin decodes
// with zero steady-state allocations and the chunk frames carry record
// counts, so a reader can skip straight to an (offset, limit) window —
// the enabling primitive for partitioning one trace file across worker
// processes.
//
//	file    := header chunk* trailer
//	header  := "ODRB" version:u16 flags:u16              (8 bytes)
//	chunk   := payloadLen:u32 recCount:u32 crc32(payload):u32 payload
//	trailer := 0:u32 totalRecords:u64 crc32(totalRecords bytes):u32
//	record  := userID:i64 timeMS:i64 accessBW:f64 size:i64 weekly:u32
//	           isp:u8 class:u8 protocol:u8 flags:u8 fileID:[16]u8
//	           urlLen:u32 url:[urlLen]u8
//
// A payloadLen of 0 is the trailer sentinel: no chunk is ever empty.
//
// Unlike the text formats — which mirror the paper's logs and record
// AccessBW as 0 for users whose clients never reported it — bin is
// lossless: accessBW carries the model's value verbatim and the record
// flags byte carries ReportsBW (bit 0). A full generated week can round-
// trip through a bin file and replay byte-identically; csv/jsonl round
// trips lose the approximated bandwidth of non-reporting users and can
// only feed the reporting-users sample path.
const (
	binMagic   = "ODRB"
	binVersion = 1

	// binRecordFixed is the fixed prefix of every record before the URL
	// bytes: 4×8 (userID, timeMS, accessBW, size) + 4 (weekly) + 3 enum
	// bytes + 1 flags byte + 16 (fileID) + 4 (urlLen).
	binRecordFixed = 60

	// binChunkTarget is the writer's flush threshold: a chunk is closed
	// once its payload reaches this size. Large enough to amortize the
	// 12-byte frame and the CRC, small enough that a window skip lands
	// near its first record.
	binChunkTarget = 256 << 10

	// binMaxChunk caps the payload size a reader will buffer, bounding
	// memory against corrupt or adversarial length fields.
	binMaxChunk = 16 << 20

	binHeaderLen  = 8
	binFrameLen   = 12 // payloadLen + recCount + crc
	binTrailerLen = 16 // sentinel + totalRecords + crc
)

// binFlagReportsBW is record flag bit 0: the user's client reported its
// access bandwidth.
const binFlagReportsBW = 1

// appendBinRecord appends the lossless bin encoding of one request:
// accessBW verbatim, ReportsBW in the flags byte.
func appendBinRecord(dst []byte, r workload.Request) []byte {
	var flags byte
	if r.User.ReportsBW {
		flags |= binFlagReportsBW
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.User.ID))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Time.Milliseconds()))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.User.AccessBW))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.File.Size))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.File.WeeklyRequests))
	dst = append(dst, byte(r.User.ISP), byte(r.File.Class), byte(r.File.Protocol), flags)
	dst = append(dst, r.File.ID[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.File.SourceURL)))
	return append(dst, r.File.SourceURL...)
}

// WriteWorkloadBinStream writes a request stream in the bin format, one
// CRC-framed chunk at a time; memory stays constant in stream length.
func WriteWorkloadBinStream(w io.Writer, src workload.RequestSource) error {
	return writeWorkloadBin(w, src, binChunkTarget)
}

// WriteWorkloadBin writes requests in the bin format. It is a thin wrapper
// over WriteWorkloadBinStream.
func WriteWorkloadBin(w io.Writer, reqs []workload.Request) error {
	return WriteWorkloadBinStream(w, workload.NewSliceSource(reqs))
}

func writeWorkloadBin(w io.Writer, src workload.RequestSource, chunkTarget int) error {
	bw := bufio.NewWriter(w)
	var frame [binFrameLen]byte
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(frame[0:2], binVersion)
	binary.LittleEndian.PutUint16(frame[2:4], 0) // flags
	if _, err := bw.Write(frame[:4]); err != nil {
		return err
	}
	payload := make([]byte, 0, chunkTarget+4096)
	var recCount uint32
	var total uint64
	flush := func() error {
		if recCount == 0 {
			return nil
		}
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], recCount)
		binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(payload))
		if _, err := bw.Write(frame[:]); err != nil {
			return err
		}
		if _, err := bw.Write(payload); err != nil {
			return err
		}
		payload = payload[:0]
		recCount = 0
		return nil
	}
	for {
		i, r, ok := src.Next()
		if !ok {
			break
		}
		// A record longer than the reader's payload cap cannot be read
		// back in any chunk (only possible with a pathological URL): refuse
		// it. One that fits alone but not beside the open chunk's records
		// closes that chunk early.
		size := binRecordFixed + len(r.File.SourceURL)
		if size > binMaxChunk {
			return fmt.Errorf("trace: bin record %d is %d bytes, beyond the %d-byte chunk payload a reader accepts", i, size, binMaxChunk)
		}
		if len(payload) > 0 && len(payload)+size > binMaxChunk {
			if err := flush(); err != nil {
				return err
			}
		}
		payload = appendBinRecord(payload, r)
		recCount++
		total++
		if len(payload) >= chunkTarget {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := src.Err(); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	var trailer [binTrailerLen]byte
	binary.LittleEndian.PutUint32(trailer[0:4], 0) // sentinel
	binary.LittleEndian.PutUint64(trailer[4:12], total)
	binary.LittleEndian.PutUint32(trailer[12:16], crc32.ChecksumIEEE(trailer[4:12]))
	if _, err := bw.Write(trailer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// binSource streams bin records a chunk at a time, decoding each record in
// place from the reused payload buffer. Identities are interned as in the
// text readers, so after warm-up a record decode allocates nothing — the
// URL string is only materialized the first time its file is seen.
type binSource struct {
	br   *bufio.Reader
	pool *identityPool

	payload []byte // current chunk payload, reused across chunks
	off     int    // decode offset within payload

	pos     int   // emitted stream index (0-based, post-window)
	rec     int64 // absolute record index in the file, for errors
	fileOff int64 // byte offset of the current chunk's payload start
	chunkAt int64 // byte offset where the current record's chunk begins

	skip  int64 // records still to skip before the window starts
	limit int64 // records still to emit; <0 means unbounded
	total int64 // trailer record count when known up front, else -1

	err  error
	done bool
}

// sizedBinSource is a binSource whose record count is known from the
// trailer; it implements workload.Sizer so trace-fed replays regain
// pre-sized shard buffers.
type sizedBinSource struct {
	binSource
	n int
}

// TotalRequests implements workload.Sizer.
func (s *sizedBinSource) TotalRequests() int { return s.n }

// StreamWorkloadBin opens a bin workload trace for record-at-a-time
// reading. When r is an io.ReadSeeker (a file), the trailer is validated
// up front and the returned source implements workload.Sizer; a missing or
// corrupt trailer is reported immediately as a truncation error.
func StreamWorkloadBin(r io.Reader) (workload.RequestSource, error) {
	return StreamWorkloadBinWindow(r, 0, -1)
}

// StreamWorkloadBinWindow opens a bin workload trace restricted to the
// half-open record window [offset, offset+limit); limit < 0 means "to the
// end". Whole chunks before the window are skipped using the frame's
// record count — their payloads are discarded unread, which is what makes
// partitioning one trace file across processes cheap. The returned source
// re-bases indices at 0, as every RequestSource does.
func StreamWorkloadBinWindow(r io.Reader, offset, limit int64) (workload.RequestSource, error) {
	if offset < 0 {
		return nil, fmt.Errorf("trace: negative bin window offset %d", offset)
	}
	var total int64 = -1
	if rs, ok := r.(io.ReadSeeker); ok {
		n, err := readBinTrailer(rs)
		if err != nil {
			return nil, err
		}
		total = n
	}
	var hdr [binHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: bin header: %w", err)
	}
	if string(hdr[:4]) != binMagic {
		return nil, fmt.Errorf("trace: bad bin magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != binVersion {
		return nil, fmt.Errorf("trace: unsupported bin version %d (want %d)", v, binVersion)
	}
	s := binSource{
		br:      bufio.NewReaderSize(r, 64<<10),
		pool:    newIdentityPool(),
		skip:    offset,
		limit:   limit,
		total:   total,
		fileOff: binHeaderLen,
	}
	if total < 0 {
		return &s, nil
	}
	n := total - offset
	if n < 0 {
		n = 0
	}
	if limit >= 0 && limit < n {
		n = limit
	}
	return &sizedBinSource{binSource: s, n: int(n)}, nil
}

// readBinTrailer validates and reads the record-count trailer, leaving the
// seek position at the start of the file.
func readBinTrailer(rs io.ReadSeeker) (int64, error) {
	end, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	if end < binHeaderLen+binTrailerLen {
		return 0, fmt.Errorf("trace: bin file is %d bytes, too short for header and trailer (truncated?)", end)
	}
	if _, err := rs.Seek(end-binTrailerLen, io.SeekStart); err != nil {
		return 0, err
	}
	var trailer [binTrailerLen]byte
	if _, err := io.ReadFull(rs, trailer[:]); err != nil {
		return 0, fmt.Errorf("trace: bin trailer: %w", err)
	}
	if binary.LittleEndian.Uint32(trailer[0:4]) != 0 {
		return 0, fmt.Errorf("trace: bin trailer sentinel missing at offset %d (truncated file?)", end-binTrailerLen)
	}
	if got, want := crc32.ChecksumIEEE(trailer[4:12]), binary.LittleEndian.Uint32(trailer[12:16]); got != want {
		return 0, fmt.Errorf("trace: bin trailer checksum mismatch at offset %d", end-binTrailerLen)
	}
	n := binary.LittleEndian.Uint64(trailer[4:12])
	if n > math.MaxInt64 {
		return 0, fmt.Errorf("trace: bin trailer record count %d overflows", n)
	}
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	return int64(n), nil
}

func (s *binSource) Next() (int, workload.Request, bool) {
	if s.done {
		return 0, workload.Request{}, false
	}
	if s.limit >= 0 && int64(s.pos) >= s.limit {
		s.done = true
		return 0, workload.Request{}, false
	}
	for {
		if s.off >= len(s.payload) {
			if !s.nextChunk() {
				return 0, workload.Request{}, false
			}
			continue
		}
		req, err := s.decodeRecord()
		if err != nil {
			s.fail(err)
			return 0, workload.Request{}, false
		}
		s.rec++
		if s.skip > 0 {
			s.skip--
			continue
		}
		i := s.pos
		s.pos++
		return i, req, true
	}
}

// nextChunk loads the next chunk payload, skipping whole chunks that fall
// entirely before the window. It reports false at the trailer or on error.
func (s *binSource) nextChunk() bool {
	for {
		var frame [binFrameLen]byte
		if _, err := io.ReadFull(s.br, frame[:4]); err != nil {
			s.fail(fmt.Errorf("trace: bin chunk frame at offset %d: %w", s.fileOff, noEOF(err)))
			return false
		}
		payloadLen := binary.LittleEndian.Uint32(frame[0:4])
		if payloadLen == 0 { // trailer sentinel
			s.finish()
			return false
		}
		if payloadLen > binMaxChunk {
			s.fail(fmt.Errorf("trace: bin chunk at offset %d claims %d-byte payload (max %d)", s.fileOff, payloadLen, binMaxChunk))
			return false
		}
		if _, err := io.ReadFull(s.br, frame[4:]); err != nil {
			s.fail(fmt.Errorf("trace: bin chunk frame at offset %d: %w", s.fileOff, noEOF(err)))
			return false
		}
		recCount := binary.LittleEndian.Uint32(frame[4:8])
		if recCount == 0 || uint64(recCount)*binRecordFixed > uint64(payloadLen) {
			s.fail(fmt.Errorf("trace: bin chunk at offset %d claims %d records in %d bytes", s.fileOff, recCount, payloadLen))
			return false
		}
		chunkAt := s.fileOff
		s.fileOff += binFrameLen + int64(payloadLen)
		if s.skip >= int64(recCount) {
			// The whole chunk precedes the window: discard the payload
			// without buffering or checksumming it.
			if _, err := s.br.Discard(int(payloadLen)); err != nil {
				s.fail(fmt.Errorf("trace: bin chunk at offset %d: %w", chunkAt, noEOF(err)))
				return false
			}
			s.skip -= int64(recCount)
			s.rec += int64(recCount)
			continue
		}
		if cap(s.payload) < int(payloadLen) {
			s.payload = make([]byte, payloadLen)
		}
		s.payload = s.payload[:payloadLen]
		if _, err := io.ReadFull(s.br, s.payload); err != nil {
			s.fail(fmt.Errorf("trace: bin chunk at offset %d: %w", chunkAt, noEOF(err)))
			return false
		}
		if got, want := crc32.ChecksumIEEE(s.payload), binary.LittleEndian.Uint32(frame[8:12]); got != want {
			s.fail(fmt.Errorf("trace: bin chunk at offset %d: checksum mismatch (corrupt payload)", chunkAt))
			return false
		}
		s.off = 0
		s.chunkAt = chunkAt
		return true
	}
}

// finish validates the trailer against the records actually seen when the
// stream was consumed to the end without a limit.
func (s *binSource) finish() {
	s.done = true
	var rest [binTrailerLen - 4]byte
	if _, err := io.ReadFull(s.br, rest[:]); err != nil {
		s.err = fmt.Errorf("trace: bin trailer at offset %d: %w", s.fileOff, noEOF(err))
		return
	}
	if got, want := crc32.ChecksumIEEE(rest[0:8]), binary.LittleEndian.Uint32(rest[8:12]); got != want {
		s.err = fmt.Errorf("trace: bin trailer checksum mismatch at offset %d", s.fileOff)
		return
	}
	if n := binary.LittleEndian.Uint64(rest[0:8]); n != uint64(s.rec) {
		s.err = fmt.Errorf("trace: bin trailer claims %d records, stream carried %d", n, s.rec)
	}
}

// decodeRecord decodes the record at s.off, advancing past it. Decoding is
// allocation-free once the record's user and file identities are interned.
func (s *binSource) decodeRecord() (workload.Request, error) {
	p := s.payload[s.off:]
	recOff := s.chunkAt + binFrameLen + int64(s.off)
	if len(p) < binRecordFixed {
		return workload.Request{}, fmt.Errorf("trace: bin record %d at offset %d: %d bytes left in chunk, want %d",
			s.rec, recOff, len(p), binRecordFixed)
	}
	urlLen := binary.LittleEndian.Uint32(p[56:60])
	if uint64(urlLen) > uint64(len(p)-binRecordFixed) {
		return workload.Request{}, fmt.Errorf("trace: bin record %d at offset %d: URL length %d exceeds %d bytes left in chunk",
			s.rec, recOff, urlLen, len(p)-binRecordFixed)
	}
	userID := int64(binary.LittleEndian.Uint64(p[0:8]))
	timeMS := int64(binary.LittleEndian.Uint64(p[8:16]))
	bw := math.Float64frombits(binary.LittleEndian.Uint64(p[16:24]))
	size := int64(binary.LittleEndian.Uint64(p[24:32]))
	weekly := binary.LittleEndian.Uint32(p[32:36])
	isp, class, proto, flags := p[36], p[37], p[38], p[39]
	if size < 0 {
		return workload.Request{}, fmt.Errorf("trace: bin record %d at offset %d: negative size %d", s.rec, recOff, size)
	}
	if int(isp) >= workload.NumISPs {
		return workload.Request{}, fmt.Errorf("trace: bin record %d at offset %d: unknown ISP %d", s.rec, recOff, isp)
	}
	if int(class) >= workload.NumFileClasses {
		return workload.Request{}, fmt.Errorf("trace: bin record %d at offset %d: unknown file class %d", s.rec, recOff, class)
	}
	if int(proto) >= workload.NumProtocols {
		return workload.Request{}, fmt.Errorf("trace: bin record %d at offset %d: unknown protocol %d", s.rec, recOff, proto)
	}
	s.off += binRecordFixed + int(urlLen)

	user, ok := s.pool.users[int(userID)]
	if !ok {
		user = &workload.User{
			ID: int(userID), ISP: workload.ISP(isp),
			AccessBW: bw, ReportsBW: flags&binFlagReportsBW != 0,
		}
		s.pool.users[user.ID] = user
	}
	var id workload.FileID
	copy(id[:], p[40:56])
	file, ok := s.pool.files[id]
	if !ok {
		file = &workload.FileMeta{
			ID: id, Size: size,
			Class: workload.FileClass(class), Protocol: workload.Protocol(proto),
			SourceURL:      string(p[binRecordFixed : binRecordFixed+int(urlLen)]),
			WeeklyRequests: int(weekly),
		}
		s.pool.addFile(file)
	}
	return workload.Request{
		User: user, File: file,
		Time: time.Duration(timeMS) * time.Millisecond,
	}, nil
}

// BinFiles returns the distinct files a bin source has decoded so far, in
// first-appearance order; ok is false when src is not a bin source. Once
// a source opened at offset 0 is drained, that is the trace's file
// population in workload.Census's order, at no cost beyond the decode:
// the decoder interns every file by ID either way. A window at a later
// offset decodes the records it skips inside its first chunk, so its
// list can start before the window does.
func BinFiles(src workload.RequestSource) (files []*workload.FileMeta, ok bool) {
	switch s := src.(type) {
	case *binSource:
		return s.pool.order, true
	case *sizedBinSource:
		return s.pool.order, true
	}
	return nil, false
}

func (s *binSource) fail(err error) {
	s.err = err
	s.done = true
}

func (s *binSource) Err() error { return s.err }

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a frame or
// trailer, running out of bytes is always a truncation, and the wrapped
// error should say so.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadWorkloadBin parses a bin workload trace into a slice, deduplicating
// identities as the streaming reader does.
func ReadWorkloadBin(r io.Reader) ([]workload.Request, error) {
	src, err := StreamWorkloadBin(r)
	if err != nil {
		return nil, err
	}
	return workload.Collect(src)
}

// HashWorkload drains a request stream and returns the SHA-256 of the
// canonical bin encoding of every record, plus the record count. Because
// the encoding normalizes exactly what the trace formats preserve, equal
// digests mean the streams are equivalent regardless of which format (or
// generator) produced them — the primitive behind the paper-scale
// experiment's cross-path identity checks. The caller's goroutine pulls
// the records; they are encoded on GOMAXPROCS goroutines and hashed, in
// order, on one more (see writeRecords).
func HashWorkload(src workload.RequestSource) (string, int, error) {
	h := sha256.New()
	n, err := writeRecords(h, src, binRecordBytes, appendBinRecord)
	if err != nil {
		return "", n, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}
