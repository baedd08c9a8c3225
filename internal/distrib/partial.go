package distrib

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"odr/internal/core"
	"odr/internal/obs"
	"odr/internal/replay"
	"odr/internal/workload"
)

// Partial is one window's replay output in transportable form: the task
// records, the backend ledger counts, the engine totals, and optionally a
// metrics snapshot. Partials concatenate (tasks) and add (everything
// else) into exactly the single-process result — see MergePartials.
type Partial struct {
	// Window is the record range the tasks cover.
	Window Window
	// Spec is the WorkerSpec fingerprint the window replayed under; the
	// merge refuses to mix fingerprints.
	Spec string
	// Ledgers holds the per-backend counts in backend.Set.All() order.
	Ledgers []replay.LedgerCounts
	// Totals is the window's engine totals (Tasks == Window.Limit).
	Totals replay.ShardTotals
	// Metrics is the worker's registry snapshot (nil when unobserved).
	Metrics *obs.Snapshot
	// Tasks are the window's task records, in window order. The
	// serialized form keeps every field the digest, the timeline, and the
	// summary accessors read; Request.User, the file identity hash, and
	// the decision's display-only Source/Addresses do not survive the
	// round trip (none of them is an observable replay outcome).
	Tasks []replay.ODRTask
	// Seconds is the worker's wall time for the whole window (loading its
	// census and start state, and the replay) — the throughput-scaling
	// input.
	Seconds float64
}

// Partial-result file format ("ODRP"): an 8-byte magic/version block,
// a CRC-covered length-prefixed JSON header (everything but the tasks,
// plus the interned reason/cause string tables), the fixed-stride task
// records, and a trailing CRC32-IEEE over header and records. The fixed
// stride keeps a 4M-task week's partials at ~56 B/task and the decode
// allocation-free per record.
const (
	partialMagic   = "ODRP"
	partialVersion = 1
	taskRecordLen  = 56
)

// partialHeader is the JSON block of a partial file.
type partialHeader struct {
	Window  Window                `json:"window"`
	Spec    string                `json:"spec"`
	Ledgers []replay.LedgerCounts `json:"ledgers"`
	Totals  replay.ShardTotals    `json:"totals"`
	Metrics *obs.Snapshot         `json:"metrics,omitempty"`
	Reasons []string              `json:"reasons"`
	Causes  []string              `json:"causes"`
	Tasks   int64                 `json:"tasks"`
	Seconds float64               `json:"seconds"`
}

// taskFlag bits in the task record's flags byte.
const (
	taskFlagSuccess      = 1 << 0
	taskFlagStorageBound = 1 << 1
	taskFlagB4Exposed    = 1 << 2
)

// intern returns s's index in the table, appending it on first use.
func intern(table *[]string, idx map[string]int, s string) (int, error) {
	if i, ok := idx[s]; ok {
		return i, nil
	}
	i := len(*table)
	if i > math.MaxUint16 {
		return 0, fmt.Errorf("distrib: more than %d distinct strings in partial", math.MaxUint16)
	}
	*table = append(*table, s)
	idx[s] = i
	return i, nil
}

// WritePartial writes p to path atomically (writeAtomic). A crashed worker
// therefore never leaves a half-written partial under the final name.
func WritePartial(path string, p *Partial) error {
	return writeAtomic(path, func(w io.Writer) error { return encodePartial(w, p) })
}

// writeAtomic writes path through write atomically and durably: a temp
// file in the same directory, synced, renamed over path, and the directory
// synced. A crash at any point leaves the old file or the new one, never a
// torn one.
func writeAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// crcWriter tees writes through a running CRC32.
type crcWriter struct {
	w io.Writer
	h hash.Hash32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.h.Write(p[:n])
	return n, err
}

func encodePartial(w io.Writer, p *Partial) error {
	hdr := partialHeader{
		Window:  p.Window,
		Spec:    p.Spec,
		Ledgers: p.Ledgers,
		Totals:  p.Totals,
		Metrics: p.Metrics,
		Reasons: []string{},
		Causes:  []string{},
		Tasks:   int64(len(p.Tasks)),
		Seconds: p.Seconds,
	}
	reasonIdx := map[string]int{}
	causeIdx := map[string]int{}
	type packed struct {
		reason, cause int
	}
	idxs := make([]packed, len(p.Tasks))
	for i := range p.Tasks {
		t := &p.Tasks[i]
		r, err := intern(&hdr.Reasons, reasonIdx, t.Decision.Reason)
		if err != nil {
			return err
		}
		c, err := intern(&hdr.Causes, causeIdx, t.Cause)
		if err != nil {
			return err
		}
		idxs[i] = packed{reason: r, cause: c}
	}
	hdrJSON, err := json.Marshal(hdr)
	if err != nil {
		return err
	}

	var magic [8]byte
	copy(magic[:4], partialMagic)
	binary.LittleEndian.PutUint16(magic[4:6], partialVersion)
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	cw := &crcWriter{w: bw, h: crc32.NewIEEE()}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(hdrJSON)))
	if _, err := cw.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := cw.Write(hdrJSON); err != nil {
		return err
	}
	var rec [taskRecordLen]byte
	for i := range p.Tasks {
		t := &p.Tasks[i]
		var flags byte
		if t.Success {
			flags |= taskFlagSuccess
		}
		if t.StorageBound {
			flags |= taskFlagStorageBound
		}
		if t.B4Exposed {
			flags |= taskFlagB4Exposed
		}
		rec[0] = byte(t.Decision.Route)
		rec[1] = flags
		binary.LittleEndian.PutUint16(rec[2:4], uint16(idxs[i].reason))
		binary.LittleEndian.PutUint16(rec[4:6], uint16(idxs[i].cause))
		binary.LittleEndian.PutUint16(rec[6:8], 0)
		binary.LittleEndian.PutUint64(rec[8:16], math.Float64bits(t.PerceivedRate))
		binary.LittleEndian.PutUint64(rec[16:24], uint64(t.PreDelay))
		binary.LittleEndian.PutUint64(rec[24:32], math.Float64bits(t.CloudBytes))
		binary.LittleEndian.PutUint64(rec[32:40], uint64(t.Request.Time))
		binary.LittleEndian.PutUint64(rec[40:48], uint64(t.Request.File.Size))
		binary.LittleEndian.PutUint32(rec[48:52], uint32(t.Request.File.WeeklyRequests))
		binary.LittleEndian.PutUint32(rec[52:56], 0)
		if _, err := cw.Write(rec[:]); err != nil {
			return err
		}
	}
	// The trailer CRC covers everything after the magic block and is
	// written outside the hashed stream.
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], cw.h.Sum32())
	if _, err := bw.Write(crcBuf[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadPartial reads and validates a partial-result file, reconstructing
// the task records. Files are interned by (size, weekly-requests) — the
// only file attributes the digest, timeline, and summary read — and
// Request.User stays nil.
func ReadPartial(path string) (*Partial, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := decodePartial(raw)
	if err != nil {
		return nil, fmt.Errorf("distrib: %s: %w", path, err)
	}
	return p, nil
}

// decodePartial parses the bytes of a partial-result file. Every length
// and index the bytes carry is checked against what is actually there
// before anything is sized from it (FuzzDecodePartial).
func decodePartial(raw []byte) (*Partial, error) {
	if len(raw) < 8+4+4 {
		return nil, fmt.Errorf("partial file is %d bytes, too short", len(raw))
	}
	if string(raw[:4]) != partialMagic {
		return nil, fmt.Errorf("bad partial magic %q", raw[:4])
	}
	if v := binary.LittleEndian.Uint16(raw[4:6]); v != partialVersion {
		return nil, fmt.Errorf("unsupported partial version %d (want %d)", v, partialVersion)
	}
	body, tail := raw[8:len(raw)-4], raw[len(raw)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, errors.New("partial checksum mismatch (corrupt or truncated)")
	}
	hdrLen := int64(binary.LittleEndian.Uint32(body[:4]))
	if 4+hdrLen > int64(len(body)) {
		return nil, fmt.Errorf("partial header length %d overruns file", hdrLen)
	}
	var hdr partialHeader
	if err := json.Unmarshal(body[4:4+hdrLen], &hdr); err != nil {
		return nil, fmt.Errorf("partial header: %w", err)
	}
	// Compare in units of records: tasks*taskRecordLen can wrap int64 and
	// land on the byte count, and the slice below is sized from tasks.
	recs := body[4+hdrLen:]
	if len(recs)%taskRecordLen != 0 || hdr.Tasks != int64(len(recs)/taskRecordLen) {
		return nil, fmt.Errorf("%d record bytes, want %d bytes each for %d tasks",
			len(recs), taskRecordLen, hdr.Tasks)
	}

	type fileKey struct {
		size   int64
		weekly int
	}
	files := map[fileKey]*workload.FileMeta{}
	tasks := make([]replay.ODRTask, hdr.Tasks)
	for i := range tasks {
		rec := recs[i*taskRecordLen:]
		reason := int(binary.LittleEndian.Uint16(rec[2:4]))
		cause := int(binary.LittleEndian.Uint16(rec[4:6]))
		if reason >= len(hdr.Reasons) || cause >= len(hdr.Causes) {
			return nil, fmt.Errorf("task %d string index out of table", i)
		}
		key := fileKey{
			size:   int64(binary.LittleEndian.Uint64(rec[40:48])),
			weekly: int(binary.LittleEndian.Uint32(rec[48:52])),
		}
		f := files[key]
		if f == nil {
			f = &workload.FileMeta{Size: key.size, WeeklyRequests: key.weekly}
			files[key] = f
		}
		flags := rec[1]
		tasks[i] = replay.ODRTask{
			Request: workload.Request{
				File: f,
				Time: time.Duration(binary.LittleEndian.Uint64(rec[32:40])),
			},
			Decision: core.Decision{
				Route:  core.Route(rec[0]),
				Reason: hdr.Reasons[reason],
			},
			Success:       flags&taskFlagSuccess != 0,
			Cause:         hdr.Causes[cause],
			PerceivedRate: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:16])),
			PreDelay:      time.Duration(binary.LittleEndian.Uint64(rec[16:24])),
			CloudBytes:    math.Float64frombits(binary.LittleEndian.Uint64(rec[24:32])),
			StorageBound:  flags&taskFlagStorageBound != 0,
			B4Exposed:     flags&taskFlagB4Exposed != 0,
		}
	}
	return &Partial{
		Window:  hdr.Window,
		Spec:    hdr.Spec,
		Ledgers: hdr.Ledgers,
		Totals:  hdr.Totals,
		Metrics: hdr.Metrics,
		Tasks:   tasks,
		Seconds: hdr.Seconds,
	}, nil
}
