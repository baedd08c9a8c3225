package cloud

import (
	"odr/internal/workload"
)

// UploaderPool models the uploading servers deployed inside one ISP. Each
// active fetch commits a constant rate for its duration and occupies one
// connection slot; Xuanfeng never degrades active downloads, so admission
// is all-or-nothing and new fetches are rejected when every pool is
// exhausted (§2.1). Slot exhaustion is what bites at the day-7 peak:
// slow cross-ISP fetches hold their server connections for hours.
type UploaderPool struct {
	isp       workload.ISP
	capacity  float64 // bytes/second
	committed float64
	maxFlows  int // connection slots; 0 means unlimited
	flows     int
}

// ISP returns the ISP this pool serves.
func (p *UploaderPool) ISP() workload.ISP { return p.isp }

// Capacity returns the pool's upload capacity in bytes/second.
func (p *UploaderPool) Capacity() float64 { return p.capacity }

// Committed returns the bandwidth currently promised to active fetches.
func (p *UploaderPool) Committed() float64 { return p.committed }

// Available returns the uncommitted bandwidth.
func (p *UploaderPool) Available() float64 { return p.capacity - p.committed }

// ActiveFetches returns the number of occupied connection slots.
func (p *UploaderPool) ActiveFetches() int { return p.flows }

// reserve commits rate and one slot if both fit, reporting success.
func (p *UploaderPool) reserve(rate float64) bool {
	if p.committed+rate > p.capacity {
		return false
	}
	if p.maxFlows > 0 && p.flows >= p.maxFlows {
		return false
	}
	p.committed += rate
	p.flows++
	return true
}

// release returns rate and its slot to the pool.
func (p *UploaderPool) release(rate float64) {
	p.committed -= rate
	if p.committed < 0 {
		p.committed = 0
	}
	p.flows--
	if p.flows < 0 {
		p.flows = 0
	}
}

// Uploaders is the set of per-ISP pools plus privileged-path selection:
// prefer the pool in the user's own ISP; fall back to any other pool (a
// cross-ISP path) when the home pool is exhausted; reject when every pool
// is exhausted.
type Uploaders struct {
	pools [workload.NumISPs]*UploaderPool // nil for unsupported ISPs
}

// NewUploaders builds pools from per-ISP capacities in bytes/second.
// flowReserve is the per-connection provisioning unit: each pool offers
// capacity/flowReserve connection slots (<= 0 means unlimited slots).
// ISPs with non-positive capacity get no pool.
func NewUploaders(capacities map[workload.ISP]float64, flowReserve float64) *Uploaders {
	u := &Uploaders{}
	for isp, c := range capacities {
		if c <= 0 {
			continue
		}
		p := &UploaderPool{isp: isp, capacity: c}
		if flowReserve > 0 {
			p.maxFlows = int(c / flowReserve)
			if p.maxFlows < 1 {
				p.maxFlows = 1
			}
		}
		u.pools[isp] = p
	}
	return u
}

// Pool returns the pool for an ISP, or nil.
func (u *Uploaders) Pool(isp workload.ISP) *UploaderPool {
	if int(isp) >= len(u.pools) {
		return nil
	}
	return u.pools[isp]
}

// TotalCapacity returns the summed capacity of all pools.
func (u *Uploaders) TotalCapacity() float64 {
	var t float64
	for _, p := range u.pools {
		if p != nil {
			t += p.capacity
		}
	}
	return t
}

// TotalCommitted returns the summed committed bandwidth of all pools.
func (u *Uploaders) TotalCommitted() float64 {
	var t float64
	for _, p := range u.pools {
		if p != nil {
			t += p.committed
		}
	}
	return t
}

// Grant is a successful bandwidth reservation. Release it exactly once
// when the fetch ends.
//
// A grant reserves the deliverable rate plus one connection slot for the
// fetch's whole duration. Xuanfeng protects active downloads rather than
// degrade them (§2.1); slot exhaustion under the long-lived slow fetches
// of the evening peak is what makes the system reject new fetches on
// day 7 (Figure 11).
type Grant struct {
	pool     *UploaderPool
	reserved float64
	rate     float64
	// Privileged reports whether the serving pool is in the user's own
	// ISP (no ISP barrier on the path).
	Privileged bool
	released   bool
}

// Rate returns the deliverable rate in bytes/second.
func (g *Grant) Rate() float64 { return g.rate }

// Release returns the reservation to its pool. Releasing twice panics: a
// double release corrupts admission accounting.
func (g *Grant) Release() {
	if g.released {
		panic("cloud: double release of uploader grant")
	}
	g.released = true
	g.pool.release(g.reserved)
}

// Admit tries to reserve bandwidth for a user in userISP. It first tries
// the user's home pool (privileged path); if that fails — the user is
// outside the four supported ISPs, or the home pool is exhausted — it
// tries the remaining pools, preferring the one with the most headroom (a
// stand-in for "shortest network latency", §2.1); a fallback path crosses
// the ISP barrier and both reserves and delivers only crossRate. It
// returns nil if no pool can hold the reservation, in which case the
// fetch is rejected.
func (u *Uploaders) Admit(userISP workload.ISP, privRate, crossRate float64) *Grant {
	if home := u.Pool(userISP); home != nil && home.reserve(privRate) {
		return &Grant{pool: home, reserved: privRate, rate: privRate, Privileged: true}
	}
	// Alternative server: pick the pool with the most headroom.
	var best *UploaderPool
	for _, p := range u.pools {
		if p == nil || p.isp == userISP {
			continue
		}
		if best == nil || p.Available() > best.Available() {
			best = p
		}
	}
	if best != nil && best.reserve(crossRate) {
		return &Grant{pool: best, reserved: crossRate, rate: crossRate, Privileged: false}
	}
	return nil
}
