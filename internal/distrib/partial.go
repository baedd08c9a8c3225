package distrib

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"time"

	"odr/internal/core"
	"odr/internal/obs"
	"odr/internal/replay"
)

// Partial is one window's replay output in transportable form: the task
// records, the backend ledger counts, the engine totals, and optionally a
// metrics snapshot. Partials stack (tasks, in window order) and add
// (everything else) into exactly the single-process result — see
// MergePartials.
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
	// Tasks are the window's task records, in window order: of each task
	// exactly what replay.DigestOf reads (replay.DigestRecord), which is
	// also exactly what the file carries.
	Tasks []replay.DigestRecord
	// Seconds is the worker's wall time for the whole window (loading its
	// census and start state, and the replay) — the throughput-scaling
	// input.
	Seconds float64
}

// A partial's payload is its tasks as fixed-stride little-endian records
// of exactly the fields replay.DigestOf reads: route (u8), flags (u8), the
// cause's index in the header's cause table (u16), perceived rate (f64),
// pre-delay (i64) and cloud bytes (f64). The fixed stride keeps a 4M-task
// week's partials at ~28 B/task and the decode allocation-free per record.
const taskRecordLen = 28

// partialHeader is the JSON header of a partial file.
type partialHeader struct {
	Window  Window                `json:"window"`
	Spec    string                `json:"spec"`
	Ledgers []replay.LedgerCounts `json:"ledgers"`
	Totals  replay.ShardTotals    `json:"totals"`
	Metrics *obs.Snapshot         `json:"metrics,omitempty"`
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

// WritePartial writes p to path atomically (writeAtomic). A crashed worker
// therefore never leaves a half-written partial under the final name.
func WritePartial(path string, p *Partial) error {
	raw, err := encodePartial(p)
	if err != nil {
		return err
	}
	return writeAtomic(path, raw)
}

// encodePartial renders a partial file.
func encodePartial(p *Partial) ([]byte, error) {
	hdr := partialHeader{
		Window:  p.Window,
		Spec:    p.Spec,
		Ledgers: p.Ledgers,
		Totals:  p.Totals,
		Metrics: p.Metrics,
		Causes:  []string{},
		Tasks:   int64(len(p.Tasks)),
		Seconds: p.Seconds,
	}
	causeIdx := map[string]int{}
	recs := make([]byte, len(p.Tasks)*taskRecordLen)
	for i := range p.Tasks {
		t := &p.Tasks[i]
		cause, ok := causeIdx[t.Cause]
		if !ok {
			cause = len(hdr.Causes)
			if cause > math.MaxUint16 {
				return nil, fmt.Errorf("distrib: more than %d distinct causes in partial", math.MaxUint16+1)
			}
			hdr.Causes = append(hdr.Causes, t.Cause)
			causeIdx[t.Cause] = cause
		}
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
		rec := recs[i*taskRecordLen:]
		rec[0] = byte(t.Route)
		rec[1] = flags
		binary.LittleEndian.PutUint16(rec[2:4], uint16(cause))
		binary.LittleEndian.PutUint64(rec[4:12], math.Float64bits(t.PerceivedRate))
		binary.LittleEndian.PutUint64(rec[12:20], uint64(t.PreDelay))
		binary.LittleEndian.PutUint64(rec[20:28], math.Float64bits(t.CloudBytes))
	}
	return partialFrame.encode(hdr, recs)
}

// ReadPartial reads and validates a partial-result file, reconstructing
// its digest records.
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
	var hdr partialHeader
	recs, err := partialFrame.decode(raw, &hdr)
	if err != nil {
		return nil, err
	}
	// Compare in units of records: tasks*taskRecordLen can wrap int64 and
	// land on the byte count, and the slice below is sized from tasks.
	if len(recs)%taskRecordLen != 0 || hdr.Tasks != int64(len(recs)/taskRecordLen) {
		return nil, fmt.Errorf("%d record bytes, want %d bytes each for %d tasks",
			len(recs), taskRecordLen, hdr.Tasks)
	}
	tasks := make([]replay.DigestRecord, hdr.Tasks)
	for i := range tasks {
		rec := recs[i*taskRecordLen:]
		cause := int(binary.LittleEndian.Uint16(rec[2:4]))
		if cause >= len(hdr.Causes) {
			return nil, fmt.Errorf("task %d cause index %d out of table", i, cause)
		}
		flags := rec[1]
		tasks[i] = replay.DigestRecord{
			Cause:         hdr.Causes[cause],
			PerceivedRate: math.Float64frombits(binary.LittleEndian.Uint64(rec[4:12])),
			PreDelay:      time.Duration(binary.LittleEndian.Uint64(rec[12:20])),
			CloudBytes:    math.Float64frombits(binary.LittleEndian.Uint64(rec[20:28])),
			Route:         core.Route(rec[0]),
			Success:       flags&taskFlagSuccess != 0,
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
