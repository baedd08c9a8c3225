package replay

import (
	"fmt"
	"math"
	"strings"
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
func DigestOf(tasks []ODRTask, ledgers []LedgerCounts, tot ShardTotals) string {
	var b strings.Builder
	b.Grow(len(tasks) * 48)
	for i := range tasks {
		t := &tasks[i]
		fmt.Fprintf(&b, "%d|%v|%v|%q|%x|%d|%x|%v|%v\n",
			i, t.Decision.Route, t.Success, t.Cause,
			math.Float64bits(t.PerceivedRate), t.PreDelay,
			math.Float64bits(t.CloudBytes), t.StorageBound, t.B4Exposed)
	}
	for _, l := range ledgers {
		fmt.Fprintf(&b, "%s|%d|%d|%d|%d|%d\n", l.Name,
			l.PreDownloads, l.Fetches, l.Failures, l.BytesOut, l.BytesOutHP)
	}
	fmt.Fprintf(&b, "totals|%d|%d\n", tot.Tasks, tot.Failures)
	return b.String()
}

// Digest is DigestOf over this result's own tasks, ledgers, and engine
// totals.
func (r *ODRResult) Digest() string {
	return DigestOf(r.Tasks, r.Ledgers(), r.Engine.Totals())
}
