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
// chunks, closed by the trace's file table and a trailer. It exists
// because csv/jsonl pay text encode/decode on every record and cannot be
// windowed; bin decodes with zero steady-state allocations and the chunk
// frames carry record counts, so a reader can skip straight to an
// (offset, limit) window — the enabling primitive for partitioning one
// trace file across worker processes.
//
//	file    := header chunk* table trailer
//	header  := "ODRB" version:u16 flags:u16              (8 bytes)
//	chunk   := payloadLen:u32 recCount:u32 crc32(payload):u32 payload
//	table   := 0:u32 files:u32 crc32(entries):u32 entries
//	entry   := fileID:[16]u8 size:i64 weekly:u32 class:u8 protocol:u8
//	           first:u64                                 (38 bytes)
//	trailer := totalRecords:u64 tableAt:u64 crc32(totalRecords tableAt):u32
//	record  := userID:i64 timeMS:i64 accessBW:f64 size:i64 weekly:u32
//	           isp:u8 class:u8 protocol:u8 flags:u8 fileID:[16]u8
//	           urlLen:u32 url:[urlLen]u8
//
// A payloadLen of 0 marks the file table: no chunk is ever empty. The
// table is the trace's census — every distinct file in first-appearance
// order, with the index of the record it first appears at — so a reader
// learns the trace's population without decoding a record
// (ReadBinCensus). tableAt is the table's byte offset; the table ends
// where the trailer begins, which fixes its size. A sequential reader
// passes over the table at stream end, checking its CRC, and checks the
// trailer against the records and the table it met.
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
	binVersion = 2

	// binRecordFixed is the fixed prefix of every record before the URL
	// bytes: 4×8 (userID, timeMS, accessBW, size) + 4 (weekly) + 3 enum
	// bytes + 1 flags byte + 16 (fileID) + 4 (urlLen).
	binRecordFixed = 60

	// binEntryLen is one file table entry: ID, size, weekly requests,
	// class, protocol, first record index.
	binEntryLen = 16 + 8 + 4 + 1 + 1 + 8

	// binChunkTarget is the writer's flush threshold: a chunk is closed
	// once its payload reaches this size. Large enough to amortize the
	// 12-byte frame and the CRC, small enough that a window skip lands
	// near its first record.
	binChunkTarget = 256 << 10

	// binMaxChunk caps the payload size a reader will buffer, bounding
	// memory against corrupt or adversarial length fields.
	binMaxChunk = 16 << 20

	binHeaderLen  = 8
	binFrameLen   = 12 // payloadLen + recCount + crc; the table's: 0 + files + crc
	binTrailerLen = 20 // totalRecords + tableAt + crc
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
	off := uint64(binHeaderLen) // where the next frame starts
	// The file table, built as the files first appear.
	seen := make(map[workload.FileID]struct{})
	var table []byte
	writeFrame := func(n, count uint32, body []byte) error {
		binary.LittleEndian.PutUint32(frame[0:4], n)
		binary.LittleEndian.PutUint32(frame[4:8], count)
		binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(body))
		if _, err := bw.Write(frame[:]); err != nil {
			return err
		}
		_, err := bw.Write(body)
		off += binFrameLen + uint64(len(body))
		return err
	}
	flush := func() error {
		if recCount == 0 {
			return nil
		}
		if err := writeFrame(uint32(len(payload)), recCount, payload); err != nil {
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
		if _, ok := seen[r.File.ID]; !ok {
			seen[r.File.ID] = struct{}{}
			table = appendBinEntry(table, r.File, total)
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
	if uint64(len(seen)) > math.MaxUint32 {
		return fmt.Errorf("trace: %d distinct files overflow the bin file table", len(seen))
	}
	tableAt := off
	if err := writeFrame(0, uint32(len(seen)), table); err != nil {
		return err
	}
	var trailer [binTrailerLen]byte
	binary.LittleEndian.PutUint64(trailer[0:8], total)
	binary.LittleEndian.PutUint64(trailer[8:16], tableAt)
	binary.LittleEndian.PutUint32(trailer[16:20], crc32.ChecksumIEEE(trailer[0:16]))
	if _, err := bw.Write(trailer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// appendBinEntry appends f's file table entry: the census fields the
// backend fleet reads off a file — ID, size, weekly requests (the
// popularity band), class and protocol — and the index of the record it
// first appears at. SourceURL stays in the records; no backend reads it.
func appendBinEntry(dst []byte, f *workload.FileMeta, first uint64) []byte {
	dst = append(dst, f.ID[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Size))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.WeeklyRequests))
	dst = append(dst, byte(f.Class), byte(f.Protocol))
	return binary.LittleEndian.AppendUint64(dst, first)
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
		tr, err := readBinTrailer(rs)
		if err != nil {
			return nil, err
		}
		total = tr.records
	}
	if err := readBinHeader(r); err != nil {
		return nil, err
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

// readBinHeader reads and checks the header: the magic and the one
// version this reader knows.
func readBinHeader(r io.Reader) error {
	var hdr [binHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("trace: bin header: %w", err)
	}
	if string(hdr[:4]) != binMagic {
		return fmt.Errorf("trace: bad bin magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != binVersion {
		return fmt.Errorf("trace: unsupported bin version %d (want %d)", v, binVersion)
	}
	return nil
}

// binTrailer is what a bin trace's trailer declares.
type binTrailer struct {
	records int64 // the trace's record count
	tableAt int64 // the file table's byte offset
	files   int64 // the entries between the table's frame and the trailer
}

// readBinTrailer validates and reads the trailer, leaving the seek
// position at the start of the file.
func readBinTrailer(rs io.ReadSeeker) (binTrailer, error) {
	end, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return binTrailer{}, err
	}
	if end < binHeaderLen+binFrameLen+binTrailerLen {
		return binTrailer{}, fmt.Errorf("trace: bin file is %d bytes, too short for header, file table and trailer (truncated?)", end)
	}
	if _, err := rs.Seek(end-binTrailerLen, io.SeekStart); err != nil {
		return binTrailer{}, err
	}
	var trailer [binTrailerLen]byte
	if _, err := io.ReadFull(rs, trailer[:]); err != nil {
		return binTrailer{}, fmt.Errorf("trace: bin trailer: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(trailer[0:16]), binary.LittleEndian.Uint32(trailer[16:20]); got != want {
		return binTrailer{}, fmt.Errorf("trace: bin trailer checksum mismatch at offset %d (truncated file?)", end-binTrailerLen)
	}
	n := binary.LittleEndian.Uint64(trailer[0:8])
	if n > math.MaxInt64 {
		return binTrailer{}, fmt.Errorf("trace: bin trailer record count %d overflows", n)
	}
	at := binary.LittleEndian.Uint64(trailer[8:16])
	if last := uint64(end - binTrailerLen - binFrameLen); at < binHeaderLen || at > last {
		return binTrailer{}, fmt.Errorf("trace: bin trailer places the file table at offset %d, outside [%d, %d]", at, binHeaderLen, last)
	}
	entries := end - binTrailerLen - int64(at) - binFrameLen
	if entries%binEntryLen != 0 {
		return binTrailer{}, fmt.Errorf("trace: bin file table at offset %d: %d bytes of entries, not whole %d-byte entries (truncated?)",
			at, entries, binEntryLen)
	}
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return binTrailer{}, err
	}
	return binTrailer{records: int64(n), tableAt: int64(at), files: entries / binEntryLen}, nil
}

// BinCensus is a bin trace's census as its file table declares it: the
// record count, every distinct file in first-appearance order, and the
// index of the record each file first appears at. First ascends, so the
// files the records before any index name are a prefix of Files. The
// files carry no SourceURL; the records do.
type BinCensus struct {
	Records int64
	Files   []*workload.FileMeta
	First   []int
}

// readBinCensus reads a bin trace's census from its trailer and file
// table, decoding no record. The table is outside input: one that is
// truncated, fails its CRC, lists first indices that do not ascend or lie
// outside the trace, or names a negative size or an unknown class or
// protocol is an error naming the table.
func readBinCensus(rs io.ReadSeeker) (BinCensus, error) {
	tr, err := readBinTrailer(rs)
	if err != nil {
		return BinCensus{}, err
	}
	if err := readBinHeader(rs); err != nil {
		return BinCensus{}, err
	}
	files := tr.files
	if _, err := rs.Seek(tr.tableAt, io.SeekStart); err != nil {
		return BinCensus{}, err
	}
	raw := make([]byte, binFrameLen+files*binEntryLen) // readBinTrailer bounds it by the file's size
	if _, err := io.ReadFull(rs, raw); err != nil {
		return BinCensus{}, fmt.Errorf("trace: bin file table at offset %d: %w", tr.tableAt, noEOF(err))
	}
	entries := raw[binFrameLen:]
	switch {
	case binary.LittleEndian.Uint32(raw[0:4]) != 0:
		return BinCensus{}, fmt.Errorf("trace: bin file table at offset %d: a chunk frame where the table should start", tr.tableAt)
	case int64(binary.LittleEndian.Uint32(raw[4:8])) != files:
		return BinCensus{}, fmt.Errorf("trace: bin file table at offset %d claims %d files, its bytes hold %d",
			tr.tableAt, binary.LittleEndian.Uint32(raw[4:8]), files)
	case crc32.ChecksumIEEE(entries) != binary.LittleEndian.Uint32(raw[8:12]):
		return BinCensus{}, fmt.Errorf("trace: bin file table at offset %d: checksum mismatch (corrupt table)", tr.tableAt)
	case (files == 0) != (tr.records == 0):
		return BinCensus{}, fmt.Errorf("trace: bin file table lists %d files for %d records", files, tr.records)
	}
	metas := make([]workload.FileMeta, files)
	cen := BinCensus{Records: tr.records, Files: make([]*workload.FileMeta, files), First: make([]int, files)}
	for k := range metas {
		e, f := entries[k*binEntryLen:], &metas[k]
		copy(f.ID[:], e)
		f.Size = int64(binary.LittleEndian.Uint64(e[16:]))
		f.WeeklyRequests = int(binary.LittleEndian.Uint32(e[24:]))
		f.Class, f.Protocol = workload.FileClass(e[28]), workload.Protocol(e[29])
		first := binary.LittleEndian.Uint64(e[30:])
		switch {
		case f.Size < 0:
			return BinCensus{}, fmt.Errorf("trace: bin file table: file %d has negative size %d", k, f.Size)
		case int(f.Class) >= workload.NumFileClasses:
			return BinCensus{}, fmt.Errorf("trace: bin file table: file %d has unknown file class %d", k, f.Class)
		case int(f.Protocol) >= workload.NumProtocols:
			return BinCensus{}, fmt.Errorf("trace: bin file table: file %d has unknown protocol %d", k, f.Protocol)
		case first >= uint64(tr.records):
			return BinCensus{}, fmt.Errorf("trace: bin file table: file %d first appears at record %d, outside the trace's %d", k, first, tr.records)
		case k > 0 && int(first) <= cen.First[k-1]:
			return BinCensus{}, fmt.Errorf("trace: bin file table: file %d first appears at record %d, not after file %d's %d",
				k, first, k-1, cen.First[k-1])
		}
		cen.Files[k], cen.First[k] = f, int(first)
	}
	return cen, nil
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

// finish passes over the file table the stream ended at — checking its
// CRC, not buffering it — then checks the trailer against the records
// read and the table's offset.
func (s *binSource) finish() {
	s.done = true
	tableAt := s.fileOff
	var frame [binFrameLen - 4]byte
	if _, err := io.ReadFull(s.br, frame[:]); err != nil {
		s.err = fmt.Errorf("trace: bin file table at offset %d: %w", tableAt, noEOF(err))
		return
	}
	h := crc32.NewIEEE()
	entries := int64(binary.LittleEndian.Uint32(frame[0:4])) * binEntryLen
	if _, err := io.CopyN(h, s.br, entries); err != nil {
		s.err = fmt.Errorf("trace: bin file table at offset %d: %w", tableAt, noEOF(err))
		return
	}
	if h.Sum32() != binary.LittleEndian.Uint32(frame[4:8]) {
		s.err = fmt.Errorf("trace: bin file table at offset %d: checksum mismatch (corrupt table)", tableAt)
		return
	}
	trailerAt := tableAt + binFrameLen + entries
	var trailer [binTrailerLen]byte
	if _, err := io.ReadFull(s.br, trailer[:]); err != nil {
		s.err = fmt.Errorf("trace: bin trailer at offset %d: %w", trailerAt, noEOF(err))
		return
	}
	if got, want := crc32.ChecksumIEEE(trailer[0:16]), binary.LittleEndian.Uint32(trailer[16:20]); got != want {
		s.err = fmt.Errorf("trace: bin trailer checksum mismatch at offset %d", trailerAt)
		return
	}
	if n := binary.LittleEndian.Uint64(trailer[0:8]); n != uint64(s.rec) {
		s.err = fmt.Errorf("trace: bin trailer claims %d records, stream carried %d", n, s.rec)
		return
	}
	if at := binary.LittleEndian.Uint64(trailer[8:16]); at != uint64(tableAt) {
		s.err = fmt.Errorf("trace: bin trailer places the file table at offset %d, it starts at %d", at, tableAt)
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
		s.pool.files[id] = file
	}
	return workload.Request{
		User: user, File: file,
		Time: time.Duration(timeMS) * time.Millisecond,
	}, nil
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
