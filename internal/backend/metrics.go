package backend

import (
	"time"

	"odr/internal/obs"
	"odr/internal/workload"
)

// backendMetrics holds the obs handles a backend records into. The zero
// value (all-nil handles) is the uninstrumented state: every record call
// degrades to a nil-receiver no-op, so the hot path costs a few nil
// checks when no registry is injected. Handles are resolved once in
// Instrument, never per request.
//
// Everything recorded here is a pure function of the request outcomes, so
// instrumented and uninstrumented replays produce byte-identical results.
// An engine shard's requests record into the shard's Tally and reach the
// handles when the engine folds it (add); a request with no tally records
// into the handles at once. The counts are integer sums either way, so
// any shard interleaving produces identical totals.
type backendMetrics struct {
	probeHit, probeMiss *obs.Counter
	preOK, preFail      *obs.Counter
	fetchOK, fetchFail  *obs.Counter
	preSeconds          *obs.Histogram
	fetchBytes          *obs.Histogram
}

// newBackendMetrics resolves the per-backend metric handles. A nil
// registry yields the all-nil (disabled) state.
func newBackendMetrics(reg *obs.Registry, name string) backendMetrics {
	return backendMetrics{
		probeHit:  reg.Counter(obs.Label("odr_backend_probes_total", "backend", name, "hit", "true")),
		probeMiss: reg.Counter(obs.Label("odr_backend_probes_total", "backend", name, "hit", "false")),
		preOK:     reg.Counter(obs.Label("odr_backend_predownloads_total", "backend", name, "ok", "true")),
		preFail:   reg.Counter(obs.Label("odr_backend_predownloads_total", "backend", name, "ok", "false")),
		fetchOK:   reg.Counter(obs.Label("odr_backend_fetches_total", "backend", name, "ok", "true")),
		fetchFail: reg.Counter(obs.Label("odr_backend_fetches_total", "backend", name, "ok", "false")),
		preSeconds: reg.Histogram(
			obs.Label("odr_backend_predownload_seconds", "backend", name)),
		fetchBytes: reg.Histogram(
			obs.Label("odr_backend_fetch_bytes", "backend", name)),
	}
}

// probe records one availability probe, to t (the backend's slot of the
// request's tally) or, when t is nil, the handles.
func (m *backendMetrics) probe(t *SlotTally, hit bool) {
	switch {
	case t != nil && hit:
		t.probeHit++
	case t != nil:
		t.probeMiss++
	case hit:
		m.probeHit.Inc()
	default:
		m.probeMiss.Inc()
	}
}

// pre records one pre-download outcome, to t or the handles: result
// counter plus the delay histogram in whole seconds.
func (m *backendMetrics) pre(t *SlotTally, r *PreResult) {
	secs := uint64(r.Delay / time.Second)
	if t != nil {
		if r.OK {
			t.preOK++
		} else {
			t.preFail++
		}
		t.preSeconds.Observe(secs)
		return
	}
	if r.OK {
		m.preOK.Inc()
	} else {
		m.preFail.Inc()
	}
	m.preSeconds.Observe(secs)
}

// fetch records one user-facing fetch outcome, to t or the handles,
// charging the delivered bytes to the fetch-bytes histogram on success.
func (m *backendMetrics) fetch(t *SlotTally, r *FetchResult, f *workload.FileMeta) {
	if t != nil {
		if r.OK {
			t.fetchOK++
			t.fetchBytes.Observe(uint64(f.Size))
		} else {
			t.fetchFail++
		}
		return
	}
	if r.OK {
		m.fetchOK.Inc()
		m.fetchBytes.Observe(uint64(f.Size))
	} else {
		m.fetchFail.Inc()
	}
}

// add folds a tally's counts into the handles.
func (m *backendMetrics) add(t *SlotTally) {
	m.probeHit.Add(t.probeHit)
	m.probeMiss.Add(t.probeMiss)
	m.preOK.Add(t.preOK)
	m.preFail.Add(t.preFail)
	m.fetchOK.Add(t.fetchOK)
	m.fetchFail.Add(t.fetchFail)
	m.preSeconds.AddCounts(t.preSeconds.Sum, &t.preSeconds.Buckets)
	m.fetchBytes.AddCounts(t.fetchBytes.Sum, &t.fetchBytes.Buckets)
}

// Instrument wires the whole fleet into reg. Call before any request is
// replayed (the handles are written without synchronization); a nil
// registry leaves the fleet uninstrumented. Metrics never alter request
// outcomes — the determinism tests pin replay digests with metrics on and
// off.
func (s *Set) Instrument(reg *obs.Registry) {
	s.Cloud.Instrument(reg)
	s.SmartAP.Instrument(reg)
	s.UserDevice.Instrument(reg)
	s.CloudThenAP.Instrument(reg)
}

// Instrument wires the cloud backend's recording into reg (nil disables).
func (c *Cloud) Instrument(reg *obs.Registry) { c.met = newBackendMetrics(reg, c.Name()) }

// Instrument wires the smart-AP backend's recording into reg (nil
// disables).
func (s *SmartAP) Instrument(reg *obs.Registry) { s.met = newBackendMetrics(reg, s.Name()) }

// Instrument wires the user-device backend's recording into reg (nil
// disables).
func (u *UserDevice) Instrument(reg *obs.Registry) { u.met = newBackendMetrics(reg, u.Name()) }

// Instrument wires the composite backend's recording into reg (nil
// disables). The shared cloud backend is not touched; instrument it
// separately (Set.Instrument does both).
func (h *CloudThenAP) Instrument(reg *obs.Registry) { h.met = newBackendMetrics(reg, h.Name()) }
