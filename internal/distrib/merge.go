package distrib

import (
	"fmt"
	"io"

	"odr/internal/obs"
	"odr/internal/replay"
)

// Merged is the coordinator's reassembled whole-trace result: the
// window partials it was merged from, checked to tile the trace under one
// spec, and their sums — the backend ledgers, the engine totals and (when
// the workers recorded) the folded metrics registry. No task record is
// copied: the digest reads each partial's own records in window order.
// Its Digest is the same replay.DigestOf serialization a single-process
// ODRResult produces, which is how the determinism invariant extends
// across process boundaries.
type Merged struct {
	// Parts is the partials in window order: Parts[i] covers the records
	// that follow Parts[i-1]'s, and together they cover the trace from
	// record 0. A partial's Window, Seconds and Totals are that window's
	// map entry, worker wall time and engine totals.
	Parts []*Partial
	// Ledgers is the per-backend counts summed across windows, in
	// backend.Set.All() order.
	Ledgers []replay.LedgerCounts
	// Totals is the windows' engine totals summed: the whole-trace count
	// exactly as a single process would report it.
	Totals replay.ShardTotals
	// Metrics is the folded worker registries (nil when unobserved):
	// equal to the registry a single process records over the whole trace,
	// less the in-flight peak (TestDistributedMetricsMatchSingleProcess).
	// Counters and histograms add, each window having recorded only what
	// happened inside it. Gauges are levels, read where the trace ends, so
	// they come from the last window alone; the in-flight peak among them
	// is that window's engine's, a scheduling signal under no determinism
	// contract.
	Metrics *obs.Registry
}

// MergePartials reassembles window partials into one whole-trace result
// that holds them. The partials must be sorted by offset, tile a
// contiguous range starting at 0, and share one spec fingerprint; ledgers
// merge position-wise with name checks. The merge is pure integer work —
// commutative inputs, one canonical output order — so merging the same
// partials in any discovery order yields byte-identical digests.
func MergePartials(parts []*Partial) (*Merged, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("distrib: nothing to merge")
	}
	m := &Merged{Parts: parts}
	var next int64
	spec := parts[0].Spec
	for i, p := range parts {
		if p.Window.Offset != next {
			return nil, fmt.Errorf("distrib: partial %d covers %v, want offset %d (windows must tile the trace)",
				i, p.Window, next)
		}
		if p.Spec != spec {
			return nil, fmt.Errorf("distrib: partial %d replayed under spec %s, others under %s",
				i, p.Spec, spec)
		}
		if int64(len(p.Tasks)) != p.Window.Limit {
			return nil, fmt.Errorf("distrib: partial %d has %d tasks for window %v",
				i, len(p.Tasks), p.Window)
		}
		if i == 0 {
			m.Ledgers = make([]replay.LedgerCounts, len(p.Ledgers))
			copy(m.Ledgers, p.Ledgers)
		} else {
			if len(p.Ledgers) != len(m.Ledgers) {
				return nil, fmt.Errorf("distrib: partial %d has %d ledgers, want %d",
					i, len(p.Ledgers), len(m.Ledgers))
			}
			for j := range p.Ledgers {
				if err := m.Ledgers[j].Add(p.Ledgers[j]); err != nil {
					return nil, fmt.Errorf("distrib: partial %d: %w", i, err)
				}
			}
		}
		m.Totals.Tasks += p.Totals.Tasks
		m.Totals.Failures += p.Totals.Failures
		next = p.Window.End()

		if snap := p.Metrics; snap != nil {
			if m.Metrics == nil {
				m.Metrics = obs.NewRegistry()
			}
			if i < len(parts)-1 {
				snap = &obs.Snapshot{Counters: snap.Counters, Histograms: snap.Histograms}
			}
			if err := m.Metrics.AddSnapshot(snap); err != nil {
				return nil, fmt.Errorf("distrib: partial %d metrics: %w", i, err)
			}
		}
	}
	return m, nil
}

// records returns each partial's task records, in window order: the runs
// the digest reads, sharing the partials' arrays.
func (m *Merged) records() [][]replay.DigestRecord {
	runs := make([][]replay.DigestRecord, len(m.Parts))
	for i, p := range m.Parts {
		runs[i] = p.Tasks
	}
	return runs
}

// Digest is the whole-trace determinism oracle, serialized exactly as
// ODRResult.Digest would: byte-identical to a single-process replay of
// the same trace under the same spec.
func (m *Merged) Digest() string {
	return replay.DigestOf(m.records(), m.Ledgers, m.Totals)
}

// WriteDigest writes Digest's bytes to w (replay.WriteDigest) without
// building the string: it streams the partials' own records, so hashing
// the merged result costs buffers bounded by GOMAXPROCS, not a copy of
// any task.
func (m *Merged) WriteDigest(w io.Writer) error {
	return replay.WriteDigest(w, m.records(), m.Ledgers, m.Totals)
}

// CloudBytes returns total bytes the cloud uploaded, from the merged
// cloud ledger (the same number ODRResult.CloudBytes reads from the live
// backend).
func (m *Merged) CloudBytes() float64 {
	for _, l := range m.Ledgers {
		if l.Name == "cloud" {
			return float64(l.BytesOut)
		}
	}
	return 0
}

// FailureRatio returns the overall task failure share from the engine
// totals.
func (m *Merged) FailureRatio() float64 {
	if m.Totals.Tasks == 0 {
		return 0
	}
	return float64(m.Totals.Failures) / float64(m.Totals.Tasks)
}
