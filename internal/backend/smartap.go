package backend

// SmartAP is the smart-AP backend: the user's own AP pre-downloads the
// file from its original source onto attached storage, and the user later
// fetches it over the LAN. The AP instance rides on each Request, so one
// SmartAP backend serves a whole heterogeneous AP fleet.
type SmartAP struct {
	ledger Ledger
	met    backendMetrics
}

// NewSmartAP returns the smart-AP backend.
func NewSmartAP() *SmartAP { return &SmartAP{} }

// Name implements Backend.
func (s *SmartAP) Name() string { return "smart-ap" }

// Ledger implements Backend.
func (s *SmartAP) Ledger() *Ledger { return &s.ledger }

// Probe implements Backend: an AP holds nothing before its pre-download.
func (s *SmartAP) Probe(req *Request) bool {
	s.met.probe(req.Tally.Slot(slotSmartAP), false)
	return false
}

// PreDownload implements Backend: the AP pulls from the original source,
// bounded by the source, the access link, and the storage write path
// (Bottleneck 4).
func (s *SmartAP) PreDownload(req *Request) PreResult {
	t := req.Tally.Slot(slotSmartAP)
	s.ledger.preDownload(t)
	r := req.AP.PreDownload(req.RNG, req.File, req.UsableBW())
	if !r.Success {
		s.ledger.fail(t)
		out := PreResult{Delay: r.Delay, Cause: r.Cause}
		s.met.pre(t, &out)
		return out
	}
	s.ledger.serve(t, req.File)
	out := PreResult{
		OK:           true,
		Rate:         r.Rate,
		Delay:        r.Delay,
		Traffic:      r.Traffic,
		IOWait:       r.IOWait,
		StorageBound: r.StorageBound,
	}
	s.met.pre(t, &out)
	return out
}

// Fetch implements Backend: the LAN fetch from the AP, which §5.2 shows
// is almost never the constraint.
func (s *SmartAP) Fetch(req *Request) FetchResult {
	t := req.Tally.Slot(slotSmartAP)
	s.ledger.fetch(t)
	_, lan := req.AP.LANFetch(req.RNG, req.File.Size)
	res := FetchResult{OK: true, Rate: req.capped(lan)}
	s.met.fetch(t, &res, req.File)
	return res
}

// StorageExposed reports whether req's AP would cap a transfer below the
// usable access bandwidth — the Bottleneck 4 precondition the replay
// tasks record.
func StorageExposed(req *Request) bool {
	return req.AP != nil && req.AP.StorageThroughput() < req.UsableBW()
}

var _ Backend = (*SmartAP)(nil)
