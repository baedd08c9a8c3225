package backend

import (
	"math"
	"time"
)

// CloudThenAP is the Bottleneck 1 mitigation as a backend: the smart AP
// pulls the file from the cloud over a stable, resumable HTTP path —
// bounded by the access link and the AP's storage write path, but immune
// to swarm health — and the user later fetches over the LAN. It shares
// the cloud backend's state, so cache probes and the upload ledger stay
// consistent with direct cloud fetches.
type CloudThenAP struct {
	cloud  *Cloud
	ledger Ledger
	met    backendMetrics
}

// NewCloudThenAP returns the composite backend over the shared cloud.
func NewCloudThenAP(c *Cloud) *CloudThenAP {
	if c == nil {
		panic("backend: NewCloudThenAP needs a cloud backend")
	}
	return &CloudThenAP{cloud: c}
}

// Name implements Backend.
func (h *CloudThenAP) Name() string { return "cloud+smart-ap" }

// Ledger implements Backend.
func (h *CloudThenAP) Ledger() *Ledger { return &h.ledger }

// Probe implements Backend by deferring to the shared cloud cache.
func (h *CloudThenAP) Probe(req *Request) bool { return h.cloud.Probe(req) }

// PreDownload implements Backend: the AP pulls the (cloud-held) file over
// HTTP. The path never stalls — the cloud is a stable origin — so the
// transfer is bounded only by the access link and the storage write path,
// and the cloud's upload ledger is charged.
func (h *CloudThenAP) PreDownload(req *Request) PreResult {
	t := req.Tally.Slot(slotCloudThenAP)
	h.ledger.preDownload(t)
	ceiling := req.UsableBW()
	rate := math.Min(ceiling, req.AP.StorageThroughput())
	h.cloud.ledger.serve(req.Tally.Slot(slotCloud), req.File)
	h.ledger.serve(t, req.File)
	out := PreResult{
		OK:           true,
		Rate:         rate,
		Delay:        time.Duration(float64(req.File.Size) / rate * float64(time.Second)),
		Traffic:      float64(req.File.Size),
		StorageBound: req.AP.StorageThroughput() < ceiling,
		CloudBytes:   req.File.Size,
	}
	h.met.pre(t, &out)
	return out
}

// Fetch implements Backend: the LAN fetch from the AP.
func (h *CloudThenAP) Fetch(req *Request) FetchResult {
	t := req.Tally.Slot(slotCloudThenAP)
	h.ledger.fetch(t)
	_, lan := req.AP.LANFetch(req.RNG, req.File.Size)
	res := FetchResult{OK: true, Rate: req.capped(lan)}
	h.met.fetch(t, &res, req.File)
	return res
}

var _ Backend = (*CloudThenAP)(nil)
var _ Backend = (*Cloud)(nil)
