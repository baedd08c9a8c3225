package distrib

import (
	"fmt"
	"io"

	"odr/internal/obs"
	"odr/internal/replay"
)

// Merged is the coordinator's reassembled whole-trace result: the
// concatenated task records, the summed backend ledgers, per-window
// engine totals, and (when the workers recorded) the folded metrics
// registry. Its Digest is the same replay.DigestOf serialization a
// single-process ODRResult produces, which is how the determinism
// invariant extends across process boundaries.
type Merged struct {
	// Tasks is every window's digest records concatenated in trace order:
	// Tasks[i] is the replay of global record i, reduced to the fields the
	// digest reads (Partial.Tasks). The merge holds 48 B per task here, not
	// a whole replay.ODRTask.
	Tasks []replay.DigestRecord
	// Ledgers is the per-backend counts summed across windows, in
	// backend.Set.All() order.
	Ledgers []replay.LedgerCounts
	// Engine treats each window as one "shard": Shards is the window
	// count and PerShard the per-window totals, so Totals() is the
	// whole-trace count exactly as a single process would report it.
	Engine replay.EngineStats
	// Metrics is the folded worker registries (nil when unobserved):
	// equal to the registry a single process records over the whole trace,
	// less the in-flight peak (TestDistributedMetricsMatchSingleProcess).
	// Counters and histograms add, each window having recorded only what
	// happened inside it. Gauges are levels, read where the trace ends, so
	// they come from the last window alone; the in-flight peak among them
	// is that window's engine's, a scheduling signal under no determinism
	// contract.
	Metrics *obs.Registry
	// Windows records the merge's window map.
	Windows []Window
	// Seconds is each window's worker wall time, for throughput-scaling
	// reports.
	Seconds []float64
}

// MergePartials reassembles window partials into one whole-trace result.
// The partials must be sorted by offset, tile a contiguous range starting
// at 0, and share one spec fingerprint; ledgers merge position-wise with
// name checks. The merge is pure integer/concatenation work — commutative
// inputs, one canonical output order — so merging the same partials in
// any discovery order yields byte-identical digests.
func MergePartials(parts []*Partial) (*Merged, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("distrib: nothing to merge")
	}
	m := &Merged{
		Engine:  replay.EngineStats{Shards: len(parts), PerShard: make([]replay.ShardTotals, len(parts))},
		Windows: make([]Window, len(parts)),
		Seconds: make([]float64, len(parts)),
	}
	var total int64
	for _, p := range parts {
		total += p.Window.Limit
	}
	m.Tasks = make([]replay.DigestRecord, 0, total)
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
		m.Tasks = append(m.Tasks, p.Tasks...)
		m.Engine.PerShard[i] = p.Totals
		m.Windows[i] = p.Window
		m.Seconds[i] = p.Seconds
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

// Digest is the whole-trace determinism oracle, serialized exactly as
// ODRResult.Digest would: byte-identical to a single-process replay of
// the same trace under the same spec.
func (m *Merged) Digest() string {
	return replay.DigestOf(m.Tasks, m.Ledgers, m.Engine.Totals())
}

// WriteDigest writes Digest's bytes to w (replay.WriteDigest) without
// building the string: hashing the merged result through it costs
// buffers bounded by GOMAXPROCS, not a second copy of every task.
func (m *Merged) WriteDigest(w io.Writer) error {
	return replay.WriteDigest(w, m.Tasks, m.Ledgers, m.Engine.Totals())
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
	tot := m.Engine.Totals()
	if tot.Tasks == 0 {
		return 0
	}
	return float64(tot.Failures) / float64(tot.Tasks)
}
