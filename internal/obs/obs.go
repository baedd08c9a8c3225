// Package obs is the repository's zero-dependency observability
// subsystem: atomic counters and gauges, log-scale histograms with
// powers-of-2 buckets (the right geometry for bytes and delay-seconds,
// which span many decades), and a Registry that groups them under
// Prometheus-style labeled names.
//
// The package is built for the sharded replay engine's determinism
// contract. Every metric accumulates in integers, through atomic
// operations or folded in whole (Histogram.AddCounts), so registries
// merged or folded in any order produce exactly the same totals, and
// enabling metrics never perturbs replay results
// (there is no randomness and no float accumulation anywhere on the
// recording path). The nil-registry convention makes instrumentation free
// when disabled: a nil *Registry hands out nil metric handles, and every
// recording method on a nil handle is a no-op — callers resolve handles
// once at construction and record unconditionally on the hot path.
package obs

import "sync/atomic"

// Counter is a monotonically increasing counter. The zero value is ready
// to use; all methods are safe for concurrent use and no-ops on a nil
// receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed value. The zero value is ready to use;
// all methods are safe for concurrent use and no-ops on a nil receiver.
// Registries merge gauges by summing them, which suits the per-shard
// quantities recorded here (queue depths, in-flight counts); point-in-time
// gauges that must not be summed belong in one registry only.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Max raises the gauge to v if v exceeds the current value — a high-water
// mark for quantities like peak queue depth.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
