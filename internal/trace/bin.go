package trace

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"

	"odr/internal/workload"
)

// The bin workload format is the paper-scale trace encoding: records that
// name their file and user by first-appearance ordinal, framed into
// CRC32-guarded chunks, closed by the trace's file table and a trailer. It
// exists because csv/jsonl pay text encode/decode on every record and
// cannot be windowed; bin decodes with zero steady-state allocations and
// the chunk frames carry record counts, so a reader can skip straight to
// an (offset, limit) window — the enabling primitive for partitioning one
// trace file across worker processes.
//
//	file      := header chunk* table trailer
//	header    := "ODRB" version:u16 flags:u16                  (8 bytes)
//	chunk     := payloadLen:u32 recCount:u32 crc32(payload):u32 payload
//	record    := dtime:varint file:uvarint user:uvarint
//	table     := 0:u32 files:u32 users:u32 urlBytes:u32
//	             crc32(userEntry* urls fileEntry*):u32
//	             userEntry{users} urls:[urlBytes]u8 fileEntry{files}
//	userEntry := userID:i64 accessBW:f64 isp:u8 flags:u8 first:u64
//	                                                           (26 bytes)
//	fileEntry := fileID:[16]u8 size:i64 weekly:u32 class:u8 protocol:u8
//	             first:u64 urlEnd:u32                          (42 bytes)
//	trailer   := totalRecords:u64 tableAt:u64 crc32(totalRecords tableAt):u32
//
// A record's file is an ordinal: the file's index in first-appearance
// order. The ordinal equal to the number of files named so far introduces
// the next file, and only at the record the table lists as that file's
// first; a smaller one names a file already seen; a larger one is an
// error. Users work the same way. dtime is the record's time in
// milliseconds less the previous record's in the same chunk (the first
// record's, less 0), so a chunk decodes on its own. A record is three
// varints: every identity is stored once, in the table.
//
// A payloadLen of 0 marks the file table: no chunk is ever empty. The
// table is the trace's census — every distinct user and file in
// first-appearance order, with the index of the record each first appears
// at, and the files' URLs (a file's starts where the previous one's ends)
// — so a reader learns the trace's population without decoding a record
// (Bin.Census). tableAt is the table's byte offset; the table ends where
// the trailer begins. A reader therefore needs a seekable file: it reads
// and checks the trailer and the table when it opens and builds every
// identity the table lists, so a record decode only indexes them.
//
// Unlike the text formats — which mirror the paper's logs and record
// AccessBW as 0 for users whose clients never reported it — bin is
// lossless: accessBW carries the model's value verbatim and the user
// flags byte carries ReportsBW (bit 0). A full generated week can round-
// trip through a bin file and replay byte-identically; csv/jsonl round
// trips lose the approximated bandwidth of non-reporting users and can
// only feed the reporting-users sample path.
const (
	binMagic   = "ODRB"
	binVersion = 4

	// binFileMetaLen is a file's fixed metadata: ID, size, weekly
	// requests, class and protocol. binUserMetaLen is a user's: ID,
	// access bandwidth, ISP and flags.
	binFileMetaLen = 16 + 8 + 4 + 1 + 1
	binUserMetaLen = 8 + 8 + 1 + 1

	// binFileEntryLen and binUserEntryLen are one file table entry each:
	// the metadata, the index of the record the identity first appears
	// at, and for a file the end of its URL in the table's URL bytes.
	binFileEntryLen = binFileMetaLen + 8 + 4
	binUserEntryLen = binUserMetaLen + 8

	// binRecordMin is the shortest record: three one-byte varints;
	// binRecordMax the longest: a 64-bit varint and two 32-bit uvarints.
	binRecordMin = 3
	binRecordMax = binary.MaxVarintLen64 + 2*binary.MaxVarintLen32

	// binChunkTarget is the writer's flush threshold: a chunk is closed
	// once its payload reaches this size. Large enough to amortize the
	// 12-byte frame and the CRC, small enough that a window skip lands
	// within a few thousand records of its first: at the 7.1 B a record of
	// a generated 680,553-record week, a chunk holds about 4,600 records.
	binChunkTarget = 32 << 10

	// binMaxChunk caps the payload size a reader will buffer, bounding
	// memory against corrupt or adversarial length fields.
	binMaxChunk = 16 << 20

	binHeaderLen     = 8
	binFrameLen      = 12 // payloadLen + recCount + crc
	binTableFrameLen = 20 // 0 + files + users + urlBytes + crc
	binTrailerLen    = 20 // totalRecords + tableAt + crc

	// binMaxOrdinals bounds a table's files and its users: an identity's
	// Ord (its ordinal plus one) is an int32.
	binMaxOrdinals = math.MaxInt32 - 1
)

// binFlagReportsBW is user flag bit 0: the user's client reported its
// access bandwidth.
const binFlagReportsBW = 1

// appendBinRecord appends the canonical encoding of one request that
// HashWorkload hashes: every field inline at fixed stride, accessBW
// verbatim and ReportsBW in the flags byte. It is the record layout of
// bin versions 1 and 2, kept so a trace's hash does not depend on how
// the file stores it.
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

// appendFileMeta appends f's fixed metadata, as its file table entry
// carries it.
func appendFileMeta(dst []byte, f *workload.FileMeta) []byte {
	dst = append(dst, f.ID[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Size))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.WeeklyRequests))
	return append(dst, byte(f.Class), byte(f.Protocol))
}

// appendUserMeta appends u's metadata, as its file table entry carries it.
func appendUserMeta(dst []byte, u *workload.User) []byte {
	var flags byte
	if u.ReportsBW {
		flags |= binFlagReportsBW
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(u.ID))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(u.AccessBW))
	return append(dst, byte(u.ISP), flags)
}

// checkFileMeta and checkUserMeta report what in a file's or a user's
// table entry no reader accepts, or nil.
func checkFileMeta(m []byte) error {
	switch size := int64(binary.LittleEndian.Uint64(m[16:])); {
	case size < 0:
		return fmt.Errorf("negative size %d", size)
	case int(m[28]) >= workload.NumFileClasses:
		return fmt.Errorf("unknown file class %d", m[28])
	case int(m[29]) >= workload.NumProtocols:
		return fmt.Errorf("unknown protocol %d", m[29])
	}
	return nil
}

func checkUserMeta(m []byte) error {
	if int(m[16]) >= workload.NumISPs {
		return fmt.Errorf("unknown ISP %d", m[16])
	}
	return nil
}

// fillFileMeta and fillUserMeta set an identity from metadata the check
// functions accepted.
func fillFileMeta(f *workload.FileMeta, m []byte) {
	copy(f.ID[:], m)
	f.Size = int64(binary.LittleEndian.Uint64(m[16:]))
	f.WeeklyRequests = int(binary.LittleEndian.Uint32(m[24:]))
	f.Class, f.Protocol = workload.FileClass(m[28]), workload.Protocol(m[29])
}

func fillUserMeta(u *workload.User, m []byte) {
	u.ID = int(int64(binary.LittleEndian.Uint64(m)))
	u.AccessBW = math.Float64frombits(binary.LittleEndian.Uint64(m[8:]))
	u.ISP = workload.ISP(m[16])
	u.ReportsBW = m[17]&binFlagReportsBW != 0
}

// WriteWorkloadBinStream writes a request stream in the bin format, one
// CRC-framed chunk at a time. Memory grows with the trace's distinct
// files and users (the file table), not with its length.
func WriteWorkloadBinStream(w io.Writer, src workload.RequestSource) error {
	return writeWorkloadBin(w, src, binChunkTarget)
}

// binEncoder numbers a trace's files and users as they first appear and
// builds the file table alongside the records.
type binEncoder struct {
	files map[workload.FileID]uint32
	users map[int]uint32
	// The table's sections, in first-appearance order.
	userTab, urls, fileTab blocks
}

// blocks is a byte buffer that grows by whole blocks, never copying what
// it holds: a trace's table is written only at its end, and a doubling
// slice would hold up to twice the table, half of it garbage. Blocks
// double from 4 KiB to 256 KiB, so a small trace's table stays small.
type blocks struct {
	full [][]byte
	cur  []byte
	n    int
}

// tail returns the open block with room for at least n more bytes.
func (b *blocks) tail(n int) []byte {
	if cap(b.cur)-len(b.cur) < n {
		if len(b.cur) > 0 {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]byte, 0, max(min(2*cap(b.cur), 256<<10), 4<<10, n))
	}
	return b.cur
}

// add records that the open block, as tail returned it, now holds cur.
func (b *blocks) add(cur []byte) {
	b.n += len(cur) - len(b.cur)
	b.cur = cur
}

// chunks returns the held bytes, in order.
func (b *blocks) chunks() [][]byte {
	return append(b.full[:len(b.full):len(b.full)], b.cur)
}

// ordinals returns the ordinals of record i's file and user. An identity
// that first appears here joins the table.
func (e *binEncoder) ordinals(r workload.Request, i uint64) (file, user uint32, err error) {
	file, ok := e.files[r.File.ID]
	if !ok {
		if len(e.files) >= binMaxOrdinals {
			return 0, 0, fmt.Errorf("trace: bin record %d: more than %d distinct files overflow the bin file table", i, binMaxOrdinals)
		}
		if uint64(e.urls.n)+uint64(len(r.File.SourceURL)) > math.MaxUint32 {
			return 0, 0, fmt.Errorf("trace: bin record %d: the file table's URLs overflow %d bytes", i, uint32(math.MaxUint32))
		}
		file = uint32(len(e.files))
		e.files[r.File.ID] = file
		e.urls.add(append(e.urls.tail(len(r.File.SourceURL)), r.File.SourceURL...))
		t := appendFileMeta(e.fileTab.tail(binFileEntryLen), r.File)
		t = binary.LittleEndian.AppendUint64(t, i)
		e.fileTab.add(binary.LittleEndian.AppendUint32(t, uint32(e.urls.n)))
	}
	user, ok = e.users[r.User.ID]
	if !ok {
		if len(e.users) >= binMaxOrdinals {
			return 0, 0, fmt.Errorf("trace: bin record %d: more than %d distinct users overflow the bin file table", i, binMaxOrdinals)
		}
		user = uint32(len(e.users))
		e.users[r.User.ID] = user
		e.userTab.add(binary.LittleEndian.AppendUint64(appendUserMeta(e.userTab.tail(binUserEntryLen), r.User), i))
	}
	return file, user, nil
}

// appendRecord appends r's record: its time less prevMS, the chunk's
// previous record's, then its file and user ordinals.
func appendRecord(dst []byte, r workload.Request, prevMS int64, file, user uint32) []byte {
	dst = binary.AppendVarint(dst, r.Time.Milliseconds()-prevMS)
	dst = binary.AppendUvarint(dst, uint64(file))
	return binary.AppendUvarint(dst, uint64(user))
}

func writeWorkloadBin(w io.Writer, src workload.RequestSource, chunkTarget int) error {
	bw := bufio.NewWriter(w)
	var frame [binTableFrameLen]byte
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(frame[0:2], binVersion)
	binary.LittleEndian.PutUint16(frame[2:4], 0) // flags
	if _, err := bw.Write(frame[:4]); err != nil {
		return err
	}
	payload := make([]byte, 0, chunkTarget+binRecordMax)
	var recCount uint32
	var total uint64
	var prevMS int64            // the open chunk's last record's time
	off := uint64(binHeaderLen) // where the next frame starts
	enc := binEncoder{files: make(map[workload.FileID]uint32), users: make(map[int]uint32)}
	flush := func() error {
		if recCount == 0 {
			return nil
		}
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], recCount)
		binary.LittleEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(payload))
		if _, err := bw.Write(frame[:binFrameLen]); err != nil {
			return err
		}
		if _, err := bw.Write(payload); err != nil {
			return err
		}
		off += binFrameLen + uint64(len(payload))
		payload, recCount, prevMS = payload[:0], 0, 0
		return nil
	}
	for {
		_, r, ok := src.Next()
		if !ok {
			break
		}
		file, user, err := enc.ordinals(r, total)
		if err != nil {
			return err
		}
		payload = appendRecord(payload, r, prevMS, file, user)
		prevMS = r.Time.Milliseconds()
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
	tableAt := off
	body := append(append(enc.userTab.chunks(), enc.urls.chunks()...), enc.fileTab.chunks()...)
	var crc uint32
	for _, p := range body {
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	binary.LittleEndian.PutUint32(frame[0:4], 0)
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(enc.files)))
	binary.LittleEndian.PutUint32(frame[8:12], uint32(len(enc.users)))
	binary.LittleEndian.PutUint32(frame[12:16], uint32(enc.urls.n))
	binary.LittleEndian.PutUint32(frame[16:20], crc)
	for _, p := range append([][]byte{frame[:]}, body...) {
		if _, err := bw.Write(p); err != nil {
			return err
		}
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

// binTable is a bin trace's file table, held as its bytes: an entry is
// read out by ordinal when a reader needs it, never all at once. The URL
// section is held as one string, so a file's SourceURL is a slice of it
// and building an identity copies no URL.
type binTable struct {
	at      int64 // the table's byte offset, where the records end
	records int64 // the trace's record count
	nfiles  int
	nusers  int
	// The table's sections.
	users, files []byte
	urls         string
}

func (t *binTable) fileEntry(k int) []byte {
	return t.files[k*binFileEntryLen : (k+1)*binFileEntryLen]
}

func (t *binTable) userEntry(k int) []byte {
	return t.users[k*binUserEntryLen : (k+1)*binUserEntryLen]
}

// fileFirst and userFirst are the index of the record entry k first
// appears at.
func (t *binTable) fileFirst(k int) int64 {
	return int64(binary.LittleEndian.Uint64(t.files[k*binFileEntryLen+binFileMetaLen:]))
}

func (t *binTable) userFirst(k int) int64 {
	return int64(binary.LittleEndian.Uint64(t.users[k*binUserEntryLen+binUserMetaLen:]))
}

func (t *binTable) urlEnd(k int) uint32 {
	return binary.LittleEndian.Uint32(t.files[k*binFileEntryLen+binFileMetaLen+8:])
}

// url is file k's URL.
func (t *binTable) url(k int) string {
	var start uint32
	if k > 0 {
		start = t.urlEnd(k - 1)
	}
	return t.urls[start:t.urlEnd(k)]
}

// file and user set f and u to identity k as a decoder of the trace
// yields it: its metadata, URL and ordinal.
func (t *binTable) file(f *workload.FileMeta, k int) {
	fillFileMeta(f, t.fileEntry(k))
	f.SourceURL = t.url(k)
	f.Ord = int32(k + 1)
}

func (t *binTable) user(u *workload.User, k int) {
	fillUserMeta(u, t.userEntry(k))
	u.Ord = int32(k + 1)
}

// before returns how many files and users first appear before record i:
// the ordinal each of them gives its next new identity there.
func (t *binTable) before(i int64) (files, users int) {
	files = sort.Search(t.nfiles, func(k int) bool { return t.fileFirst(k) >= i })
	users = sort.Search(t.nusers, func(k int) bool { return t.userFirst(k) >= i })
	return files, users
}

// binTableFrame is what a file table's frame declares past its 0 marker.
type binTableFrame struct {
	files, users, urlBytes int64
	crc                    uint32
}

func parseBinTableFrame(b []byte) binTableFrame {
	return binTableFrame{
		files:    int64(binary.LittleEndian.Uint32(b[0:])),
		users:    int64(binary.LittleEndian.Uint32(b[4:])),
		urlBytes: int64(binary.LittleEndian.Uint32(b[8:])),
		crc:      binary.LittleEndian.Uint32(b[12:]),
	}
}

// size is the byte count of the sections the frame declares.
func (f binTableFrame) size() int64 {
	return f.users*binUserEntryLen + f.urlBytes + f.files*binFileEntryLen
}

// newBinTable checks a file table — its sections read whole, the sizes its
// frame declares, and crc the checksum of their bytes — and returns it.
// The table is outside input: a CRC mismatch, identity counts that do not
// fit the records, first indices that do not ascend or lie outside the
// trace, URL ends that do not ascend to the URL bytes, metadata no record
// may carry, or a file ID listed twice is an error naming the table.
func newBinTable(at, records int64, f binTableFrame, users []byte, urls string, files []byte, crc uint32) (*binTable, error) {
	if crc != f.crc {
		return nil, fmt.Errorf("trace: bin file table at offset %d: checksum mismatch (corrupt table)", at)
	}
	if f.files > binMaxOrdinals || f.users > binMaxOrdinals ||
		(f.files == 0) != (records == 0) || (f.users == 0) != (records == 0) {
		return nil, fmt.Errorf("trace: bin file table lists %d files and %d users for %d records", f.files, f.users, records)
	}
	t := &binTable{
		at: at, records: records, nfiles: int(f.files), nusers: int(f.users),
		users: users, urls: urls, files: files,
	}
	var end uint32
	for k := 0; k < t.nfiles; k++ {
		if err := checkFileMeta(t.fileEntry(k)); err != nil {
			return nil, fmt.Errorf("trace: bin file table: file %d has %w", k, err)
		}
		if err := t.checkFirst("file", k, t.fileFirst); err != nil {
			return nil, err
		}
		next := t.urlEnd(k)
		if next < end || int64(next) > f.urlBytes {
			return nil, fmt.Errorf("trace: bin file table: file %d's URL ends at byte %d, outside [%d, %d]", k, next, end, f.urlBytes)
		}
		end = next
	}
	if int64(end) != f.urlBytes {
		return nil, fmt.Errorf("trace: bin file table holds %d URL bytes, its files' URLs take %d", f.urlBytes, end)
	}
	for k := 0; k < t.nusers; k++ {
		if err := checkUserMeta(t.userEntry(k)); err != nil {
			return nil, fmt.Errorf("trace: bin file table: user %d has %w", k, err)
		}
		if err := t.checkFirst("user", k, t.userFirst); err != nil {
			return nil, err
		}
	}
	if err := t.checkDistinctFiles(); err != nil {
		return nil, err
	}
	return t, nil
}

// checkDistinctFiles refuses a table that lists one file ID twice: a
// file's census ordinal stands for its identity only while no two entries
// share an ID. The set is open-addressed over entry indices, hashed on the
// ID's two halves, at most half full: about one probe per file (≈ 37 ms
// for the paper week's 563,517 files on a 2-vCPU host).
func (t *binTable) checkDistinctFiles() error {
	if t.nfiles < 2 {
		return nil
	}
	width := bits.Len(uint(2*t.nfiles - 1))
	slots := make([]int32, 1<<width) // an entry index plus one; 0 is empty
	mask := len(slots) - 1
	for k := 0; k < t.nfiles; k++ {
		id := t.fileEntry(k)[:16]
		h := (binary.LittleEndian.Uint64(id) ^ binary.LittleEndian.Uint64(id[8:])) * 0x9E3779B97F4A7C15
		for i := int(h >> (64 - width)); ; i = (i + 1) & mask {
			j := int(slots[i]) - 1
			if j < 0 {
				slots[i] = int32(k + 1)
				break
			}
			if bytes.Equal(t.fileEntry(j)[:16], id) {
				return fmt.Errorf("trace: bin file table: file %d repeats file %d's ID %x", k, j, id)
			}
		}
	}
	return nil
}

// checkFirst checks entry k's first record index: inside the trace and
// after entry k-1's.
func (t *binTable) checkFirst(what string, k int, first func(int) int64) error {
	switch i := first(k); {
	case i < 0 || i >= t.records:
		return fmt.Errorf("trace: bin file table: %s %d first appears at record %d, outside the trace's %d", what, k, uint64(i), t.records)
	case k > 0 && i <= first(k-1):
		return fmt.Errorf("trace: bin file table: %s %d first appears at record %d, not after %s %d's %d", what, k, i, what, k-1, first(k-1))
	}
	return nil
}

// readBinTable reads and checks a bin trace file's header, trailer and
// file table, leaving the seek position just past the header, where the
// first chunk starts.
func readBinTable(rs io.ReadSeeker) (*binTable, error) {
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if err := readBinHeader(rs); err != nil {
		return nil, err
	}
	end, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	if end < binHeaderLen+binTableFrameLen+binTrailerLen {
		return nil, fmt.Errorf("trace: bin file is %d bytes, too short for header, file table and trailer (truncated?)", end)
	}
	trailerAt := end - binTrailerLen
	if _, err := rs.Seek(trailerAt, io.SeekStart); err != nil {
		return nil, err
	}
	var trailer [binTrailerLen]byte
	if _, err := io.ReadFull(rs, trailer[:]); err != nil {
		return nil, fmt.Errorf("trace: bin trailer: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(trailer[0:16]), binary.LittleEndian.Uint32(trailer[16:20]); got != want {
		return nil, fmt.Errorf("trace: bin trailer checksum mismatch at offset %d (truncated file?)", trailerAt)
	}
	n := binary.LittleEndian.Uint64(trailer[0:8])
	if n > math.MaxInt64 {
		return nil, fmt.Errorf("trace: bin trailer record count %d overflows", n)
	}
	at := binary.LittleEndian.Uint64(trailer[8:16])
	if last := uint64(trailerAt - binTableFrameLen); at < binHeaderLen || at > last {
		return nil, fmt.Errorf("trace: bin trailer places the file table at offset %d, outside [%d, %d]", at, binHeaderLen, last)
	}
	tableAt := int64(at)
	if _, err := rs.Seek(tableAt, io.SeekStart); err != nil {
		return nil, err
	}
	var raw [binTableFrameLen]byte
	if _, err := io.ReadFull(rs, raw[:]); err != nil {
		return nil, fmt.Errorf("trace: bin file table at offset %d: %w", tableAt, noEOF(err))
	}
	if binary.LittleEndian.Uint32(raw[0:4]) != 0 {
		return nil, fmt.Errorf("trace: bin file table at offset %d: a chunk frame where the table should start", tableAt)
	}
	f := parseBinTableFrame(raw[4:])
	if have := trailerAt - tableAt - binTableFrameLen; f.size() != have {
		return nil, fmt.Errorf("trace: bin file table at offset %d: %d bytes before the trailer, not the %d its frame declares (truncated?)",
			tableAt, have, f.size())
	}
	// The sections are bounded by the file's size just above. The URLs are
	// read straight into a string, which every identity's SourceURL slices.
	sum := crc32.NewIEEE()
	users, files := make([]byte, f.users*binUserEntryLen), make([]byte, f.files*binFileEntryLen)
	var urls strings.Builder
	urls.Grow(int(f.urlBytes))
	if _, err := io.ReadFull(io.TeeReader(rs, sum), users); err != nil {
		return nil, fmt.Errorf("trace: bin file table at offset %d: %w", tableAt, noEOF(err))
	}
	if _, err := io.CopyN(io.MultiWriter(&urls, sum), rs, f.urlBytes); err != nil {
		return nil, fmt.Errorf("trace: bin file table at offset %d: %w", tableAt, noEOF(err))
	}
	if _, err := io.ReadFull(io.TeeReader(rs, sum), files); err != nil {
		return nil, fmt.Errorf("trace: bin file table at offset %d: %w", tableAt, noEOF(err))
	}
	t, err := newBinTable(tableAt, int64(n), f, users, urls.String(), files, sum.Sum32())
	if err != nil {
		return nil, err
	}
	if _, err := rs.Seek(binHeaderLen, io.SeekStart); err != nil {
		return nil, err
	}
	return t, nil
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

// BinCensus is a bin trace's census as its file table declares it: the
// record count, every distinct file in first-appearance order, and the
// index of the record each file first appears at. First ascends, so the
// files the records before any index name are a prefix of Files. Each
// file is the identity a decoder of the trace yields for it, Ord (its
// ordinal plus one) and SourceURL included.
type BinCensus struct {
	Records int64
	Files   []*workload.FileMeta
	First   []int
}

// census builds the census the table declares.
func (t *binTable) census() BinCensus {
	metas := make([]workload.FileMeta, t.nfiles)
	cen := BinCensus{Records: t.records, Files: make([]*workload.FileMeta, t.nfiles), First: make([]int, t.nfiles)}
	for k := range metas {
		f := &metas[k]
		t.file(f, k)
		cen.Files[k], cen.First[k] = f, int(t.fileFirst(k))
	}
	return cen
}

// userTable builds every user the table lists, by ordinal.
func (t *binTable) userTable() []workload.User {
	users := make([]workload.User, t.nusers)
	for k := range users {
		t.user(&users[k], k)
	}
	return users
}

// binSource streams bin records a chunk at a time, decoding each record in
// place from the reused payload buffer. A record names its file and user by
// ordinal, and the reader yields the identity the file table lists at that
// ordinal, built at open and stamped with its ordinal (Ord), which a
// replay's backend.Population takes in place of a map lookup. So a record
// decode allocates nothing.
type binSource struct {
	br  *bufio.Reader
	tab *binTable // the trace's file table, read and checked at open

	// files and users are the identities by ordinal, every one the table
	// lists; nil for a reader of ordinals alone (Bin.Ordinals). The users
	// are one slab with no pointer in it, so a Bin's shared table costs the
	// collector nothing to keep. nfiles and nusers are how many ordinals
	// the records read so far have named — the next new one.
	files          []*workload.FileMeta
	users          []workload.User
	nfiles, nusers int

	payload []byte // current chunk payload, reused across chunks
	off     int    // decode offset within payload
	ms      int64  // the previous record's time in the chunk

	pos     int   // emitted stream index (0-based, post-window)
	rec     int64 // absolute record index in the file, for errors
	fileOff int64 // byte offset of the next chunk's frame
	chunkAt int64 // byte offset where the current record's chunk begins

	skip  int64 // records still to skip before the window starts
	limit int64 // records still to emit; <0 means unbounded
	n     int   // the records the window holds, from the trailer's count

	err  error
	done bool
}

// TotalRequests implements workload.Sizer: a bin source knows its record
// count from the trailer, so trace-fed replays get pre-sized shard buffers.
func (s *binSource) TotalRequests() int { return s.n }

// StreamWorkloadBin opens a bin workload trace for record-at-a-time
// reading. r must be an io.ReadSeeker (a file): the trailer and file table
// are read and checked first, so a missing or corrupt trailer or table is
// reported immediately, and the source implements workload.Sizer.
func StreamWorkloadBin(r io.Reader) (workload.RequestSource, error) {
	return StreamWorkloadBinWindow(r, 0, -1)
}

// StreamWorkloadBinWindow opens a bin workload trace restricted to the
// half-open record window [offset, offset+limit); limit < 0 means "to the
// end". r must be an io.ReadSeeker, as for StreamWorkloadBin. Whole chunks
// before the window are skipped using the frame's record count — their
// payloads are discarded unread, which is what makes partitioning one
// trace file across processes cheap. Every identity the file table lists
// is built at open, as Bin.Window's are. The returned source re-bases
// indices at 0, as every RequestSource does.
func StreamWorkloadBinWindow(r io.Reader, offset, limit int64) (workload.RequestSource, error) {
	if offset < 0 {
		return nil, fmt.Errorf("trace: negative bin window offset %d", offset)
	}
	rs, ok := r.(io.ReadSeeker)
	if !ok {
		return nil, fmt.Errorf("trace: a bin trace needs a seekable file (io.ReadSeeker), got %T: its file table, read first, is at its end", r)
	}
	t, err := readBinTable(rs)
	if err != nil {
		return nil, err
	}
	s := binOrdinals(rs, t, offset, limit)
	s.files, s.users = t.census().Files, t.userTable()
	return s, nil
}

// binOrdinals returns the reader of records [offset, offset+limit) over r,
// positioned where the first chunk starts, without identities: a reader
// for next alone until its caller hands it the table's identities. t is
// the trace's checked file table.
func binOrdinals(r io.Reader, t *binTable, offset, limit int64) *binSource {
	n := max(t.records-offset, 0)
	if limit >= 0 && limit < n {
		n = limit
	}
	return &binSource{
		br: bufio.NewReaderSize(r, 64<<10), tab: t,
		fileOff: binHeaderLen, skip: offset, limit: limit, n: int(n),
	}
}

func (s *binSource) Next() (int, workload.Request, bool) {
	i, ms, file, user, ok := s.next()
	if !ok {
		return 0, workload.Request{}, false
	}
	return i, workload.Request{
		User: &s.users[user], File: s.files[file],
		Time: time.Duration(ms) * time.Millisecond,
	}, true
}

// next decodes the window's next record — every chunk, checksum and
// ordinal check applied — and returns its index in the window, its time in
// milliseconds and its file and user ordinals. It builds no identity.
func (s *binSource) next() (i int, ms int64, file, user int, ok bool) {
	if s.done {
		return 0, 0, 0, 0, false
	}
	if s.limit >= 0 && int64(s.pos) >= s.limit {
		s.done = true
		return 0, 0, 0, 0, false
	}
	for {
		if s.off >= len(s.payload) {
			if !s.nextChunk() {
				return 0, 0, 0, 0, false
			}
			continue
		}
		ms, file, user, err := s.decodeRecord()
		if err != nil {
			s.fail(err)
			return 0, 0, 0, 0, false
		}
		s.rec++
		if s.skip > 0 {
			s.skip--
			continue
		}
		i := s.pos
		s.pos++
		return i, ms, file, user, true
	}
}

// nextChunk loads the next chunk payload, skipping whole chunks that fall
// entirely before the window: the table says which ordinals their records
// introduced. It reports false at the file table or on error.
func (s *binSource) nextChunk() bool {
	for {
		if s.fileOff == s.tab.at {
			s.finish()
			return false
		}
		var frame [binFrameLen]byte
		if _, err := io.ReadFull(s.br, frame[:]); err != nil {
			s.fail(fmt.Errorf("trace: bin chunk frame at offset %d: %w", s.fileOff, noEOF(err)))
			return false
		}
		payloadLen := binary.LittleEndian.Uint32(frame[0:4])
		recCount := binary.LittleEndian.Uint32(frame[4:8])
		chunkAt := s.fileOff
		s.fileOff += binFrameLen + int64(payloadLen)
		switch {
		case payloadLen > binMaxChunk:
			s.fail(fmt.Errorf("trace: bin chunk at offset %d claims %d-byte payload (max %d)", chunkAt, payloadLen, binMaxChunk))
			return false
		case s.fileOff > s.tab.at:
			s.fail(fmt.Errorf("trace: bin chunk at offset %d runs to offset %d, past the file table at %d", chunkAt, s.fileOff, s.tab.at))
			return false
		case recCount == 0 || uint64(recCount)*binRecordMin > uint64(payloadLen):
			s.fail(fmt.Errorf("trace: bin chunk at offset %d claims %d records in %d bytes", chunkAt, recCount, payloadLen))
			return false
		}
		if s.skip >= int64(recCount) {
			// The whole chunk precedes the window: discard the payload
			// without buffering or checksumming it.
			if _, err := s.br.Discard(int(payloadLen)); err != nil {
				s.fail(fmt.Errorf("trace: bin chunk at offset %d: %w", chunkAt, noEOF(err)))
				return false
			}
			s.skip -= int64(recCount)
			s.rec += int64(recCount)
			s.nfiles, s.nusers = s.tab.before(s.rec)
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
		s.off, s.ms = 0, 0
		s.chunkAt = chunkAt
		return true
	}
}

// finish ends the stream where the file table starts, checking that the
// records there number what the trailer claims and have named every
// identity the table lists.
func (s *binSource) finish() {
	s.done = true
	switch t := s.tab; {
	case s.rec != t.records:
		s.err = fmt.Errorf("trace: bin trailer claims %d records, the chunks before the file table hold %d", t.records, s.rec)
	case s.nfiles != t.nfiles || s.nusers != t.nusers:
		s.err = fmt.Errorf("trace: bin file table lists %d files and %d users, the records name %d and %d",
			t.nfiles, t.nusers, s.nfiles, s.nusers)
	}
}

// varintFault says why binary.Uvarint or Varint returned n <= 0.
func varintFault(n int) string {
	if n == 0 {
		return "truncated varint"
	}
	return "varint overflows 64 bits"
}

// decodeRecord decodes the record at s.off, advancing past it, and returns
// its time in milliseconds and its file and user ordinals.
func (s *binSource) decodeRecord() (ms int64, file, user int, err error) {
	p := s.payload[s.off:]
	at := s.chunkAt + binFrameLen + int64(s.off)
	dt, n := binary.Varint(p)
	if n <= 0 {
		return 0, 0, 0, s.errorf(at, "time: %s", varintFault(n))
	}
	file, m, err := s.ordinal(p[n:], at, "file", &s.nfiles, s.tab.nfiles, s.tab.fileFirst)
	if err != nil {
		return 0, 0, 0, err
	}
	n += m
	user, m, err = s.ordinal(p[n:], at, "user", &s.nusers, s.tab.nusers, s.tab.userFirst)
	if err != nil {
		return 0, 0, 0, err
	}
	s.off += n + m
	s.ms += dt
	return s.ms, file, user, nil
}

// ordinal decodes one of the ordinals of the record at byte offset at,
// returning it and the bytes read. named counts the identities of its kind
// the records have named so far; the table lists have of them, and first
// gives the record each first appears at. An ordinal below named names an
// identity seen; named itself introduces the next, which the table must
// list as first appearing at this record; anything larger is an error.
func (s *binSource) ordinal(p []byte, at int64, what string, named *int, have int, first func(int) int64) (int, int, error) {
	o, n := binary.Uvarint(p)
	switch {
	case n <= 0:
		return 0, 0, s.errorf(at, "%s ordinal: %s", what, varintFault(n))
	case o < uint64(*named):
		return int(o), n, nil
	case o > uint64(*named):
		return 0, 0, s.errorf(at, "%s ordinal %d is neither a %s seen nor the next new one, %d", what, o, what, *named)
	case *named >= have:
		return 0, 0, s.errorf(at, "%s ordinal %d is past the file table's %d %ss", what, o, have, what)
	case first(*named) != s.rec:
		return 0, 0, s.errorf(at, "%s %d first appears here, but the file table lists it at record %d", what, o, first(*named))
	}
	*named++
	return int(o), n, nil
}

// errorf is an error at the current record, which starts at byte offset at.
func (s *binSource) errorf(at int64, format string, args ...any) error {
	return fmt.Errorf("trace: bin record %d at offset %d: %s", s.rec, at, fmt.Sprintf(format, args...))
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

// HashWorkload drains a request stream and returns the SHA-256 of the
// canonical encoding of every record (appendBinRecord), plus the record
// count. Because the encoding normalizes exactly what the trace formats
// preserve, equal digests mean the streams are equivalent regardless of
// which format (or generator) produced them — the primitive behind the
// paper-scale experiment's cross-path identity checks. The caller's
// goroutine pulls the records; they are encoded on GOMAXPROCS goroutines
// and hashed, in order, on one more (see writeRecords).
func HashWorkload(src workload.RequestSource) (string, int, error) {
	h := sha256.New()
	n, err := writeRecords(h, src, binRecordBytes, appendBinRecord)
	if err != nil {
		return "", n, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}
