package odrweb

import (
	"net/http"
	"sync/atomic"
	"time"

	"odr/internal/backend"
	"odr/internal/core"
	"odr/internal/obs"
)

// webMetrics holds the service's pre-resolved metric handles. Every
// series is registered at construction so the first scrape of a fresh
// server already exposes the full schema at zero — dashboards never see
// series pop into existence mid-flight.
type webMetrics struct {
	reg *obs.Registry
	// http holds the middleware's handles per normalized path.
	http map[string]*httpSeries
	// single and batch time the decide handlers' stages per call.
	single singleStages
	batch  batchStages
	// decisions counts answered decisions, indexed by route, each
	// route's series being its backend's (routes sharing a backend share
	// one).
	decisions [core.NumRoutes]*obs.Counter
	// resolvedBytes observes the size of every successfully resolved
	// file — the service-side analogue of the replay's fetch-bytes
	// histogram (ODR never moves the bytes itself).
	resolvedBytes *obs.Histogram
	// rerouted counts decisions the health hook moved off the preferred
	// backend, indexed like rerouteReasons.
	rerouted [len(rerouteReasons)]*obs.Counter
}

// Metric names exposed by the web service.
const (
	metricHTTPRequests  = "odr_http_requests_total"
	metricHTTPSeconds   = "odr_http_request_seconds"
	metricDecisions     = "odr_decisions_total"
	metricRerouted      = "odr_decisions_rerouted_total"
	metricResolvedBytes = "odr_fetch_bytes"
	metricHTTPStage     = "odr_http_stage_seconds"
	metricWireFallback  = "odr_wire_decode_fallback_total"
	httpSecondsScale    = 1e6 // observe microseconds, expose seconds

	// Pool series, refreshed from the SetPoolStats hook on each scrape;
	// the names match the replay's odr_pool_* metrics so dashboards read
	// one schema.
	metricPoolUsedBytes = "odr_pool_used_bytes"
	metricPoolFiles     = "odr_pool_files"
	metricPoolHits      = "odr_pool_hits_total"
	metricPoolMisses    = "odr_pool_misses_total"
	metricPoolEvictions = "odr_pool_evictions_total"
)

// rerouteReasons are the degrade reasons backend.Degrade gives a hop.
var rerouteReasons = [...]string{core.ReasonCircuitOpen, core.ReasonDegraded}

// newWebMetrics registers the service's metric schema in reg. Every
// backend's decision series and every reason's reroute series is
// registered here, so all of them scrape at zero from the start.
func newWebMetrics(reg *obs.Registry) webMetrics {
	m := webMetrics{
		reg:           reg,
		resolvedBytes: reg.Histogram(metricResolvedBytes),
	}
	for r := range m.decisions {
		name := backend.NameForRoute(core.Route(r))
		m.decisions[r] = reg.Counter(obs.Label(metricDecisions, "backend", name))
	}
	for i, reason := range rerouteReasons {
		m.rerouted[i] = reg.Counter(obs.Label(metricRerouted, "reason", reason))
	}
	// Pre-register the latency histogram and request counter for the
	// well-known paths so an idle server still scrapes the full schema.
	m.http = map[string]*httpSeries{pathOther: {path: pathOther}}
	for _, p := range []string{"/", pathDecide, pathBatch, "/healthz", "/metrics"} {
		reg.HistogramScaled(obs.Label(metricHTTPSeconds, "path", p), httpSecondsScale)
		reg.Counter(obs.Label(metricHTTPRequests, "path", p, "status", "2xx"))
		m.http[p] = &httpSeries{path: p}
	}
	stage := func(path, name string) *obs.Histogram {
		return reg.HistogramScaled(obs.Label(metricHTTPStage, "path", path, "stage", name), httpSecondsScale)
	}
	fallback := func(path string) *obs.Counter {
		return reg.Counter(obs.Label(metricWireFallback, "path", path))
	}
	m.single = singleStages{
		fallback: fallback(pathDecide),
		decode:   stage(pathDecide, "decode"),
		decide:   stage(pathDecide, "decide"),
		encode:   stage(pathDecide, "encode"),
	}
	m.batch = batchStages{
		fallback: fallback(pathBatch),
		decode:   stage(pathBatch, "decode"),
		submit:   stage(pathBatch, "submit"),
		wait:     stage(pathBatch, "wait"),
		encode:   stage(pathBatch, "encode"),
	}
	return m
}

// singleStages and batchStages are a decide endpoint's per-call stage
// timers, odr_http_stage_seconds{path,stage} (a stage is observed when a
// call gets through it), and its odr_wire_decode_fallback_total{path}, the
// bodies the wire scanner declined.
type singleStages struct {
	fallback               *obs.Counter
	decode, decide, encode *obs.Histogram
}

type batchStages struct {
	fallback                     *obs.Counter
	decode, submit, wait, encode *obs.Histogram
}

// lap observes the time since t in h and returns now.
func lap(h *obs.Histogram, t time.Time) time.Time {
	now := time.Now()
	h.ObserveDuration(now.Sub(t))
	return now
}

// decisionTally is decision metrics counted in plain integers — one
// processor call's, or one single decide's — for fold to add to the
// shared series at once, not per decision.
type decisionTally struct {
	bytes    obs.Counts
	routes   [core.NumRoutes]uint64
	reroutes [len(rerouteReasons)]uint64
}

// reroute counts one health-driven fallback hop; its reason is one of
// rerouteReasons, the only reasons backend.Degrade gives.
func (t *decisionTally) reroute(reason string) {
	for i, r := range rerouteReasons {
		if r == reason {
			t.reroutes[i]++
			return
		}
	}
}

// fold adds t to the shared series.
func (m *webMetrics) fold(t *decisionTally) {
	m.resolvedBytes.AddCounts(t.bytes.Sum, &t.bytes.Buckets)
	for r, n := range t.routes {
		if n > 0 {
			m.decisions[r].Add(n)
		}
	}
	for i, n := range t.reroutes {
		if n > 0 {
			m.rerouted[i].Add(n)
		}
	}
}

// normalizePath collapses request paths to a bounded label set; unknown
// paths share one bucket so hostile URLs cannot blow up the cardinality.
func normalizePath(p string) string {
	switch p {
	case "/", pathDecide, pathBatch, "/healthz", "/metrics":
		return p
	case "/v1/decide/batch": // alias shares the canonical path's series
		return pathBatch
	}
	return pathOther
}

// The decide endpoints' path labels, and the label of every unknown path.
const (
	pathDecide = "/api/v1/decide"
	pathBatch  = "/api/v1/decide/batch"
	pathOther  = "other"
)

// statusClasses are the status-class label values, indexed by classOf.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// classOf maps an HTTP status to its class's index in statusClasses.
func classOf(code int) int {
	switch {
	case code >= 500:
		return 4
	case code >= 400:
		return 3
	case code >= 300:
		return 2
	case code >= 200:
		return 1
	}
	return 0
}

// statusClass maps an HTTP status to its class label ("2xx", "4xx", ...).
func statusClass(code int) string { return statusClasses[classOf(code)] }

// httpSeries are one normalized path's middleware handles, resolved
// through the registry on first use and kept, so a request builds no
// label string.
type httpSeries struct {
	path     string
	seconds  atomic.Pointer[obs.Histogram]
	requests [len(statusClasses)]atomic.Pointer[obs.Counter]
}

// observe records one request that answered status after d.
func (hs *httpSeries) observe(reg *obs.Registry, status int, d time.Duration) {
	ci := classOf(status)
	c := hs.requests[ci].Load()
	if c == nil {
		c = reg.Counter(obs.Label(metricHTTPRequests, "path", hs.path, "status", statusClasses[ci]))
		hs.requests[ci].Store(c)
	}
	c.Inc()
	h := hs.seconds.Load()
	if h == nil {
		h = reg.HistogramScaled(obs.Label(metricHTTPSeconds, "path", hs.path), httpSecondsScale)
		hs.seconds.Store(h)
	}
	h.ObserveDuration(d)
}

// statusWriter captures the status code a handler writes; an untouched
// handler implies the default 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps next with the request-latency/status middleware.
func (m *webMetrics) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		m.http[normalizePath(r.URL.Path)].observe(m.reg, status, time.Since(start))
	})
}

// Metrics returns the server's registry, for embedding the service's
// observability into a larger one (e.g. cmd/odrserver's -metrics dump).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Snapshot refreshes hook-driven series (the storage pool's odr_pool_*
// family) and returns the registry snapshot — what /metrics serves and
// what cmd/odrserver dumps on exit.
func (s *Server) Snapshot() *obs.Snapshot {
	s.refreshPoolMetrics()
	return s.reg.Snapshot()
}

// refreshPoolMetrics folds the pool hook's current snapshot into the
// registry: gauges track the resident state, and the pool's monotonic
// tallies become counter deltas against the previous scrape.
func (s *Server) refreshPoolMetrics() {
	if s.poolStats == nil {
		return
	}
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	st := s.poolStats()
	s.reg.Gauge(metricPoolUsedBytes).Set(st.Used)
	s.reg.Gauge(metricPoolFiles).Set(int64(st.Files))
	delta := func(name string, cur, prev uint64) {
		if cur > prev {
			s.reg.Counter(obs.Label(name, "policy", st.Policy)).Add(cur - prev)
		}
	}
	delta(metricPoolHits, st.Hits, s.poolPrev.Hits)
	delta(metricPoolMisses, st.Misses, s.poolPrev.Misses)
	delta(metricPoolEvictions, st.Evictions, s.poolPrev.Evictions)
	s.poolPrev = st
}

// handleMetrics serves the Prometheus text exposition of the server's
// registry; ?format=json selects the JSON snapshot instead.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteJSON(w, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.WritePrometheus(w, snap)
}
