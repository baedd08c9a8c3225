package backend

import "odr/internal/core"

// Health is a backend's routing-relevant condition at a point on the
// trace clock. It is advisory: the decide path consults it to route
// around trouble before committing a task, while the backends themselves
// keep failing honestly when attempted.
type Health uint8

const (
	// Healthy: route to it normally.
	Healthy Health = iota
	// Impaired: reachable but running a degraded-bandwidth episode;
	// prefer a stable alternative when one is fully healthy.
	Impaired
	// Unavailable: offline window or open circuit breaker; attempts are
	// guaranteed to fail, route around it.
	Unavailable
)

// String names the health state for decide responses and metrics.
func (h Health) String() string {
	switch h {
	case Impaired:
		return "degraded"
	case Unavailable:
		return "unavailable"
	}
	return "ok"
}

// HealthReporter is implemented by wrappers (fault injectors, the
// Resilient policy layer) that can predict a backend's condition for a
// given request without attempting it. Plain backends don't implement it
// and are always treated as Healthy.
type HealthReporter interface {
	Health(req *Request) Health
}

// Fleet is a route-indexed view over a Set's backends that wrappers can
// be layered onto. The concrete Set keeps ownership of shared state (the
// cloud's cache, the ledgers); the Fleet is what the replay's execution
// path resolves routes against, so wrapping the Fleet — not the Set —
// injects faults or resilience policy into every route uniformly.
type Fleet struct {
	set     *Set
	byRoute [core.NumRoutes]Backend
}

// NewFleet builds the route view over set.
func NewFleet(set *Set) *Fleet {
	f := &Fleet{set: set}
	for r := 0; r < core.NumRoutes; r++ {
		b, err := set.ForRoute(core.Route(r))
		if err != nil {
			panic(err)
		}
		f.byRoute[r] = b
	}
	return f
}

// Set returns the underlying concrete backends (their ledgers survive
// wrapping).
func (f *Fleet) Set() *Set { return f.set }

// For resolves a route to its (possibly wrapped) backend.
func (f *Fleet) For(r core.Route) Backend { return f.byRoute[r] }

// Wrap returns a new Fleet with every distinct backend passed through
// wrap exactly once. Routes sharing a backend (RouteCloud and
// RouteCloudPreDownload both resolve to the cloud) keep sharing the one
// wrapper, so wrapper state — retry ledgers, breaker maps — stays
// per-backend, not per-route.
func (f *Fleet) Wrap(wrap func(Backend) Backend) *Fleet {
	nf := &Fleet{set: f.set}
	wrapped := make(map[Backend]Backend, core.NumRoutes)
	for r, b := range f.byRoute {
		w, ok := wrapped[b]
		if !ok {
			w = wrap(b)
			wrapped[b] = w
		}
		nf.byRoute[r] = w
	}
	return nf
}

// Health reports the condition of the backend a route resolves to.
// Backends that don't report health are Healthy by definition.
func (f *Fleet) Health(r core.Route, req *Request) Health {
	if hr, ok := f.byRoute[r].(HealthReporter); ok {
		return hr.Health(req)
	}
	return Healthy
}

// Degrade routes a fresh decision around unhealthy backends before any
// attempt is made; it is the one health policy the offline replay and
// the live decide service share. An Unavailable backend (offline window,
// open circuit) is always routed around — attempting it is guaranteed
// failure — while an Impaired one (degraded-bandwidth episode) is
// abandoned only for a fully healthy stable fallback: trading a
// slow-but-certain completion for a user-device gamble would lose tasks,
// not save them. Each hop re-runs the Figure 15 logic with the ruled-out
// backend removed (core.Fallback) and stamps the degradation reason onto
// the decision. look reports a route's backend health (nil = always
// healthy); it must not draw from a request's RNG, so consulting it
// keeps replays byte-identical.
//
// Degrade returns the final decision with the input it was derived from,
// the chosen backend's health, and the reason of each hop taken in order
// (reasons[:hops]) — by value in a fixed array, so a caller that counts
// hops per reason allocates nothing.
func Degrade(look func(core.Route) Health, in core.Input, dec core.Decision) (
	core.Decision, core.Input, Health, [core.NumRoutes]string, int) {
	var reasons [core.NumRoutes]string
	if look == nil {
		return dec, in, Healthy, reasons, 0
	}
	hops := 0
	h := look(dec.Route)
	for hops < core.NumRoutes && h != Healthy {
		fb, fin, ok := core.Fallback(in, dec)
		if !ok {
			break
		}
		if h == Impaired {
			if !stableRoute(fb.Route) || look(fb.Route) != Healthy {
				break
			}
			fb.Reason = core.ReasonDegraded
		} else {
			fb.Reason = core.ReasonCircuitOpen
		}
		reasons[hops] = fb.Reason
		hops++
		dec, in = fb, fin
		h = look(dec.Route)
	}
	return dec, in, h, reasons, hops
}

// stableRoute reports whether a route's fetch path has no model failure
// mode (the cloud's HTTP paths and the AP LAN): the routes worth
// switching to when the preferred backend is merely degraded.
func stableRoute(r core.Route) bool {
	return r == core.RouteCloud || r == core.RouteCloudThenAP
}
