package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"odr/internal/workload"
)

// Bin is an open bin trace file whose header, trailer and file table
// were read and checked once, when it opened. It hands out the census the
// table declares and any number of record windows, each reading the file
// on its own, without reading the table again: a distrib worker holds one
// across every window it replays. Every window hands out the same
// identities — the census's files and one table of users, each built once
// per Bin — so serving a window builds none. Close releases the file; a
// window read after Close fails.
type Bin struct {
	f    *os.File
	path string
	size int64
	tab  *binTable

	once sync.Once
	cen  BinCensus

	usersOnce sync.Once
	users     []workload.User
}

// OpenBin opens a bin trace file and checks its header, trailer and file
// table. A damaged table is an error naming it.
func OpenBin(path string) (*Bin, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	t, err := readBinTable(f)
	if err == nil {
		var fi os.FileInfo
		if fi, err = f.Stat(); err == nil {
			return &Bin{f: f, path: path, size: fi.Size(), tab: t}, nil
		}
	}
	f.Close()
	return nil, fmt.Errorf("trace: %s: %w", path, err)
}

// Path is the file the trace was opened from.
func (b *Bin) Path() string { return b.path }

// Census returns the census the trace's file table declares — its record
// count, its files in first-appearance order and the record each first
// appears at — built on the first call and shared by every later one, so
// callers must not modify it.
func (b *Bin) Census() BinCensus {
	b.once.Do(func() { b.cen = b.tab.census() })
	return b.cen
}

// Window returns a reader of the half-open record window
// [offset, offset+limit) (limit < 0 means "to the end"). Whole chunks
// before the window are skipped via the frame record counts, so a late
// window costs frame reads, not decodes. A record's file is the census's
// own (Census().Files[k] for ordinal k) and its user is the Bin's, both
// shared by every window and built on the first call, so callers must not
// modify them. The source re-bases indices at 0. Windows read the file
// independently, so several may be open at once.
func (b *Bin) Window(offset, limit int64) (workload.RequestSource, error) {
	r, err := b.records(offset)
	if err != nil {
		return nil, err
	}
	b.usersOnce.Do(func() { b.users = b.tab.userTable() })
	s := binOrdinals(r, b.tab, offset, limit)
	s.files, s.users = b.Census().Files, b.users
	return s, nil
}

// Ordinals returns the ordinal view of the record window
// [offset, offset+limit) (limit < 0 means "to the end"): the same reader
// as Window's — every chunk, checksum, ordinal and file table check
// applied — yielding each record's file as its census ordinal, its index
// into Census().Files, and building no identity. The table holds distinct
// file IDs (OpenBin checks it), so a population seeded from the census
// numbers its files as the ordinals do.
func (b *Bin) Ordinals(offset, limit int64) (*BinOrdinals, error) {
	r, err := b.records(offset)
	if err != nil {
		return nil, err
	}
	return &BinOrdinals{s: binOrdinals(r, b.tab, offset, limit)}, nil
}

// records returns a reader of the file from where its first chunk starts,
// for a window at offset.
func (b *Bin) records(offset int64) (io.Reader, error) {
	if offset < 0 {
		return nil, fmt.Errorf("trace: %s: negative bin window offset %d", b.path, offset)
	}
	return io.NewSectionReader(b.f, binHeaderLen, b.size-binHeaderLen), nil
}

// BinOrdinals is a window of a bin trace read as ordinals (Bin.Ordinals).
type BinOrdinals struct{ s *binSource }

// Next returns the next record's index in the window (from 0), its file's
// census ordinal and its time; ok is false once the window ends or the
// trace fails (Err).
func (o *BinOrdinals) Next() (i, file int, when time.Duration, ok bool) {
	i, ms, file, _, ok := o.s.next()
	return i, file, time.Duration(ms) * time.Millisecond, ok
}

// Err reports the first decode error, nil at a clean end.
func (o *BinOrdinals) Err() error { return o.s.Err() }

// Close closes the file.
func (b *Bin) Close() error { return b.f.Close() }

// SHA256File returns the lowercase hex SHA-256 of the file's bytes. The
// checkpoint manifest pins the trace identity with it, so a resume against
// a regenerated or truncated trace fails loudly instead of merging windows
// of different traces.
func SHA256File(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("trace: %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// OpenWorkloadBinWindow opens the half-open record window
// [offset, offset+limit) of a bin trace file (limit < 0 means "to the
// end") over a Bin of its own (Bin.Window), which the returned closer
// closes.
func OpenWorkloadBinWindow(path string, offset, limit int64) (workload.RequestSource, io.Closer, error) {
	b, err := OpenBin(path)
	if err != nil {
		return nil, nil, err
	}
	src, err := b.Window(offset, limit)
	if err != nil {
		b.Close()
		return nil, nil, err
	}
	return src, b, nil
}
