package replay

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"odr/internal/backend"
	"odr/internal/core"
	"odr/internal/lanes"
)

// LedgerCounts freezes one backend ledger as plain integers. It is the
// serializable form of a backend's byte and outcome totals: the distrib
// layer ships per-window counts across process boundaries in it, and
// because every field is an associative integer sum, window counts add up
// to exactly the numbers a single-process ledger would hold.
type LedgerCounts struct {
	Name         string `json:"name"`
	PreDownloads int64  `json:"pre_downloads"`
	Fetches      int64  `json:"fetches"`
	Failures     int64  `json:"failures"`
	BytesOut     int64  `json:"bytes_out"`
	BytesOutHP   int64  `json:"bytes_out_hp"`
}

// Add folds another window's counts for the same backend into l. The
// names must match: ledger slices merge position-wise in backend.Set.All()
// order, and a name mismatch means the windows were replayed against
// different fleets.
func (l *LedgerCounts) Add(o LedgerCounts) error {
	if l.Name != o.Name {
		return fmt.Errorf("replay: ledger name mismatch: %q vs %q", l.Name, o.Name)
	}
	l.PreDownloads += o.PreDownloads
	l.Fetches += o.Fetches
	l.Failures += o.Failures
	l.BytesOut += o.BytesOut
	l.BytesOutHP += o.BytesOutHP
	return nil
}

// Ledgers freezes the result's backend ledgers, in backend.Set.All()
// order — the order Digest serializes and distrib merges.
func (r *ODRResult) Ledgers() []LedgerCounts { return ledgers(r.Backends) }

// ledgers freezes set's backend ledgers, in backend.Set.All() order.
func ledgers(set *backend.Set) []LedgerCounts {
	backends := set.All()
	out := make([]LedgerCounts, 0, len(backends))
	for _, be := range backends {
		l := be.Ledger()
		out = append(out, LedgerCounts{
			Name:         be.Name(),
			PreDownloads: l.PreDownloads(),
			Fetches:      l.Fetches(),
			Failures:     l.Failures(),
			BytesOut:     l.BytesOut(),
			BytesOutHP:   l.BytesOutHP(),
		})
	}
	return out
}

// DigestRecord is the part of a task the digest reads: route, success,
// cause, perceived rate, pre-delay, cloud bytes, and the storage-bound
// and B4-exposed flags. It takes 48 B where an ODRTask takes 128 B, so a
// holder of many tasks that only reports their digest — the distributed
// coordinator's partials and merge — keeps these instead.
type DigestRecord struct {
	Cause         string
	PerceivedRate float64
	PreDelay      time.Duration
	CloudBytes    float64
	Route         core.Route
	Success       bool
	StorageBound  bool
	B4Exposed     bool
}

// digestRecord projects t onto the fields the digest reads.
func (t *ODRTask) digestRecord() DigestRecord {
	return DigestRecord{
		Cause:         t.Cause,
		PerceivedRate: t.PerceivedRate,
		PreDelay:      t.PreDelay,
		CloudBytes:    t.CloudBytes,
		Route:         t.Decision.Route,
		Success:       t.Success,
		StorageBound:  t.StorageBound,
		B4Exposed:     t.B4Exposed,
	}
}

// DigestInput is what a digest serializes per task: the whole task or its
// digest record. Both print the same line.
type DigestInput interface{ ODRTask | DigestRecord }

// appendLine appends the digest line of task index i.
func (r DigestRecord) appendLine(b []byte, i int) []byte {
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, '|')
	b = append(b, r.Route.String()...)
	b = append(b, '|')
	b = strconv.AppendBool(b, r.Success)
	b = append(b, '|')
	b = strconv.AppendQuote(b, r.Cause)
	b = append(b, '|')
	b = strconv.AppendUint(b, math.Float64bits(r.PerceivedRate), 16)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(r.PreDelay), 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, math.Float64bits(r.CloudBytes), 16)
	b = append(b, '|')
	b = strconv.AppendBool(b, r.StorageBound)
	b = append(b, '|')
	b = strconv.AppendBool(b, r.B4Exposed)
	return append(b, '\n')
}

// appendDigestTail appends the ledger lines and the totals line that
// close a digest.
func appendDigestTail(b []byte, ledgers []LedgerCounts, tot ShardTotals) []byte {
	for _, l := range ledgers {
		b = append(b, l.Name...)
		for _, v := range [...]int64{l.PreDownloads, l.Fetches, l.Failures, l.BytesOut, l.BytesOutHP} {
			b = append(b, '|')
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, '\n')
	}
	b = append(b, "totals|"...)
	b = strconv.AppendInt(b, tot.Tasks, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, tot.Failures, 10)
	return append(b, '\n')
}

const (
	// digestChunk is how many task lines one buffer holds: ~200 KB, large
	// enough that a hand-off and a Write per chunk cost nothing next to
	// the formatting, small enough that the buffers in flight stay small.
	digestChunk = 2048
	// digestLineBytes sizes buffers: a task line is ~80 bytes with a
	// six-digit index and an empty cause.
	digestLineBytes = 96
)

// DigestOf serializes every value-bearing field of a replay's tasks and
// ledgers into one string, floats rendered as exact bit patterns, so two
// runs compare byte-for-byte. It is the determinism oracle the test
// suite, the paper-scale experiment, and the distributed coordinator
// share: equal digests mean the replays are identical in every observable
// outcome, whatever input produced them (slice vs generator vs trace file,
// any shard or generation worker count, one process or many). Tasks may
// be whole tasks or their digest records; the bytes are the same. They
// come as one or more runs in trace order (WriteDigest).
//
// The bytes are a contract (goldens and the coordinator's merged sha256
// hash them): exactly what fmt's "%d|%v|%v|%q|%x|%d|%x|%v|%v\n" prints per
// task, then "%s|%d|%d|%d|%d|%d\n" per ledger and "totals|%d|%d\n". They
// are appended with strconv because the digest runs after the parallel
// replay, where fmt's reflection was 40% of a lean run;
// TestDigestMatchesFmtReference keeps the fmt form as the oracle. DigestOf
// writes them through WriteDigest into a builder grown to fit.
func DigestOf[T DigestInput](runs [][]T, ledgers []LedgerCounts, tot ShardTotals) string {
	n := 0
	for _, run := range runs {
		n += len(run)
	}
	var b strings.Builder
	b.Grow(n*digestLineBytes + len(ledgers)*64 + 32)
	_ = WriteDigest(&b, runs, ledgers, tot) // a strings.Builder never fails a write
	return b.String()
}

// WriteDigest writes DigestOf's bytes to w without building them as one
// string. The tasks are runs in trace order — one run for a whole replay,
// a window's records each for the distributed merge — and each line is
// numbered by its task's index across them, so the runs print exactly
// what their concatenation would, without ever being concatenated. Task
// lines are formatted in chunks of at most digestChunk records of one run
// on up to GOMAXPROCS goroutines and written to w in task order through
// lanes.Write, with at most two chunk buffers per goroutine in flight, so
// its memory is bounded by GOMAXPROCS and not by the task count. The
// first write error stops the formatting; WriteDigest returns it once
// every goroutine it started has exited.
func WriteDigest[T DigestInput](w io.Writer, runs [][]T, ledgers []LedgerCounts, tot ShardTotals) error {
	// A batch is one chunk of task lines: tasks[0] is task at.
	type span struct {
		tasks []T
		at    int
	}
	chunks, longest := 0, 0
	for _, run := range runs {
		chunks += (len(run) + digestChunk - 1) / digestChunk
		longest = max(longest, len(run))
	}
	var cur []T // what is left of the run being chunked
	at := 0
	err := lanes.Write(w, lanes.Spec[span]{
		Lanes:    min(runtime.GOMAXPROCS(0), chunks),
		BufBytes: min(longest, digestChunk) * digestLineBytes,
		Fill: func(b *span) (bool, error) {
			for len(cur) == 0 && len(runs) > 0 {
				cur, runs = runs[0], runs[1:]
			}
			n := min(len(cur), digestChunk)
			*b = span{cur[:n], at}
			cur, at = cur[n:], at+n
			return n > 0, nil
		},
		Format: func(dst []byte, b *span) []byte {
			for i := range b.tasks {
				dst = digestLine(dst, &b.tasks[i], b.at+i)
			}
			return dst
		},
	})
	if err != nil {
		return err
	}
	_, err = w.Write(appendDigestTail(make([]byte, 0, len(ledgers)*64+32), ledgers, tot))
	return err
}

// digestLine appends the digest line of t, the task at index i.
func digestLine[T DigestInput](b []byte, t *T, i int) []byte {
	switch t := any(t).(type) {
	case *ODRTask:
		return t.digestRecord().appendLine(b, i)
	case *DigestRecord:
		return t.appendLine(b, i)
	}
	panic("replay: digest of an unknown task type") // DigestInput admits no other
}

// Digest is DigestOf over this result's own tasks, ledgers, and engine
// totals.
func (r *ODRResult) Digest() string {
	return DigestOf([][]ODRTask{r.Tasks}, r.Ledgers(), r.Engine.Totals())
}

// WriteDigest writes Digest's bytes to w through WriteDigest, without
// building the string.
func (r *ODRResult) WriteDigest(w io.Writer) error {
	return WriteDigest(w, [][]ODRTask{r.Tasks}, r.Ledgers(), r.Engine.Totals())
}
