package obs

import (
	"fmt"
	"strings"
	"sync"
)

// Registry groups metrics under Prometheus-style names (optionally with a
// {label="value",...} block — see Label). GetOrCreate semantics make the
// lookup cheap and idempotent: the first request for a name creates the
// metric, later requests return the same instance, and a name can only
// ever hold one metric kind (a mismatch panics — it is a programming
// error, not a runtime condition).
//
// A nil *Registry is the disabled state: its lookup methods return nil
// handles whose recording methods are no-ops, so instrumented code never
// branches on "are metrics on". All methods are safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// lookup returns the existing metric under name, or nil.
func (r *Registry) lookup(name string) any {
	r.mu.RLock()
	m := r.metrics[name]
	r.mu.RUnlock()
	return m
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if m := r.lookup(name); m != nil {
		return mustKind[*Counter](name, m)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return mustKind[*Counter](name, m)
	}
	c := &Counter{}
	r.metrics[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if m := r.lookup(name); m != nil {
		return mustKind[*Gauge](name, m)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return mustKind[*Gauge](name, m)
	}
	g := &Gauge{}
	r.metrics[name] = g
	return g
}

// Histogram returns the histogram registered under name (display scale 1),
// creating it on first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramScaled(name, 1)
}

// HistogramScaled returns the histogram registered under name with the
// given display scale (encoders divide bucket bounds and sums by it),
// creating it on first use. Re-registering a name with a different scale
// panics. Returns nil on a nil registry.
func (r *Registry) HistogramScaled(name string, scale float64) *Histogram {
	if r == nil {
		return nil
	}
	if scale <= 0 {
		scale = 1
	}
	if m := r.lookup(name); m != nil {
		return mustHistScale(name, m, scale)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return mustHistScale(name, m, scale)
	}
	h := &Histogram{scale: scale}
	r.metrics[name] = h
	return h
}

// mustKind asserts the metric under name has kind T.
func mustKind[T any](name string, m any) T {
	t, ok := m.(T)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, m))
	}
	return t
}

func mustHistScale(name string, m any, scale float64) *Histogram {
	h := mustKind[*Histogram](name, m)
	if h.scaleOr1() != scale {
		panic(fmt.Sprintf("obs: histogram %q already registered with scale %g, want %g",
			name, h.scaleOr1(), scale))
	}
	return h
}

// Merge folds o's metrics into r: counters and gauges add, histograms add
// bucket-wise. Addition is commutative and associative, so merging N
// registries — a scenario matrix's cells, say — yields identical totals
// in any order.
// Merging a nil registry (either side) is a no-op. Merge may run
// concurrently with recording into o, but not with a Merge in the
// opposite direction.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil || r == o {
		return
	}
	type entry struct {
		name string
		m    any
	}
	o.mu.RLock()
	entries := make([]entry, 0, len(o.metrics))
	for name, m := range o.metrics {
		entries = append(entries, entry{name, m})
	}
	o.mu.RUnlock()
	for _, e := range entries {
		switch v := e.m.(type) {
		case *Counter:
			r.Counter(e.name).Add(v.Value())
		case *Gauge:
			r.Gauge(e.name).Add(v.Value())
		case *Histogram:
			r.HistogramScaled(e.name, v.scaleOr1()).merge(v)
		}
	}
}

// Label renders a metric name with a Prometheus-style label block:
// Label("odr_decisions_total", "backend", "cloud") returns
// `odr_decisions_total{backend="cloud"}`. Keys and values alternate;
// an odd count panics. Values are escaped per the exposition format.
// Label order is preserved, so callers must pass labels in one canonical
// order for lookups to hit the same metric.
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("obs: Label needs alternating key, value pairs")
	}
	var b strings.Builder
	b.Grow(len(name) + 16*len(kv))
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format (backslash, double-quote, newline).
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 4)
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// splitName separates a metric name into its base name and label block
// ("" when unlabeled). The label block keeps its braces' content:
// splitName(`a_total{x="1"}`) = ("a_total", `x="1"`).
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}
