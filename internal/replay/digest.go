package replay

import (
	"fmt"
	"math"
	"strconv"
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
func (r *ODRResult) Ledgers() []LedgerCounts {
	backends := r.Backends.All()
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

// DigestOf serializes every value-bearing field of a replay's tasks and
// ledgers into one string, floats rendered as exact bit patterns, so two
// runs compare byte-for-byte. It is the determinism oracle the test
// suite, the paper-scale experiment, and the distributed coordinator
// share: equal digests mean the replays are identical in every observable
// outcome, whatever input produced them (slice vs generator vs trace file,
// any shard or generation worker count, one process or many).
//
// The bytes are a contract (goldens and the coordinator's merged sha256
// hash them): exactly what fmt's "%d|%v|%v|%q|%x|%d|%x|%v|%v\n" prints per
// task, then "%s|%d|%d|%d|%d|%d\n" per ledger and "totals|%d|%d\n". They
// are appended with strconv because the digest runs sequentially after
// the parallel replay, where fmt's reflection was 40% of a lean run;
// TestDigestMatchesFmtReference keeps the fmt form as the oracle.
func DigestOf(tasks []ODRTask, ledgers []LedgerCounts, tot ShardTotals) string {
	// A task line is ~80 bytes with a six-digit index and an empty cause.
	b := make([]byte, 0, len(tasks)*96+len(ledgers)*64+32)
	for i := range tasks {
		t := &tasks[i]
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, '|')
		b = append(b, t.Decision.Route.String()...)
		b = append(b, '|')
		b = strconv.AppendBool(b, t.Success)
		b = append(b, '|')
		b = strconv.AppendQuote(b, t.Cause)
		b = append(b, '|')
		b = strconv.AppendUint(b, math.Float64bits(t.PerceivedRate), 16)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(t.PreDelay), 10)
		b = append(b, '|')
		b = strconv.AppendUint(b, math.Float64bits(t.CloudBytes), 16)
		b = append(b, '|')
		b = strconv.AppendBool(b, t.StorageBound)
		b = append(b, '|')
		b = strconv.AppendBool(b, t.B4Exposed)
		b = append(b, '\n')
	}
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
	b = append(b, '\n')
	return string(b)
}

// Digest is DigestOf over this result's own tasks, ledgers, and engine
// totals.
func (r *ODRResult) Digest() string {
	return DigestOf(r.Tasks, r.Ledgers(), r.Engine.Totals())
}
