package backend

import (
	"testing"

	"odr/internal/cloud"
	"odr/internal/core"
	"odr/internal/storage"
	"odr/internal/workload"
)

// The three starting points of the fallback graph (core.Fallback):
// smart-ap → user-device; cloud+smart-ap → cloud → user-device;
// cloud (pre-download) → user-device.
var (
	inHotAP = core.Input{
		Protocol: workload.ProtoHTTP, Band: workload.BandHighlyPopular,
		ISP: workload.ISPUnicom, AccessBW: 2.5 * 1024 * 1024,
		HasAP: true, APStorage: storage.Device{Type: storage.SATAHDD, FS: storage.EXT4}, APCPUGHz: 1.0,
	}
	inCachedSlow = core.Input{
		Protocol: workload.ProtoHTTP, Band: workload.BandUnpopular, Cached: true,
		ISP: workload.ISPOther, AccessBW: 400 * 1024,
		HasAP: true, APStorage: storage.Device{Type: storage.USBHDD, FS: storage.EXT4}, APCPUGHz: 0.58,
	}
	inUncached = core.Input{
		Protocol: workload.ProtoBitTorrent, Band: workload.BandUnpopular,
		ISP: workload.ISPUnicom, AccessBW: 2.5 * 1024 * 1024,
	}
)

func TestDegrade(t *testing.T) {
	type healths map[core.Route]Health
	allDown := healths{
		core.RouteUserDevice: Unavailable, core.RouteSmartAP: Unavailable, core.RouteCloud: Unavailable,
		core.RouteCloudThenAP: Unavailable, core.RouteCloudPreDownload: Unavailable,
	}
	const (
		open     = core.ReasonCircuitOpen
		degraded = core.ReasonDegraded
	)
	cases := []struct {
		name       string
		in         core.Input
		start      core.Route // what core.Decide(in) must pick, so the rows stay honest
		health     healths    // nil = no lookup installed
		want       core.Route
		wantHealth Health
		wantHops   []string
	}{
		{"no lookup", inCachedSlow, core.RouteCloudThenAP, nil,
			core.RouteCloudThenAP, Healthy, nil},
		{"healthy is a no-op", inCachedSlow, core.RouteCloudThenAP, healths{},
			core.RouteCloudThenAP, Healthy, nil},
		{"unavailable falls back once", inHotAP, core.RouteSmartAP,
			healths{core.RouteSmartAP: Unavailable},
			core.RouteUserDevice, Healthy, []string{open}},
		{"unavailable chains to the last fallback", inCachedSlow, core.RouteCloudThenAP,
			healths{core.RouteCloudThenAP: Unavailable, core.RouteCloud: Unavailable},
			core.RouteUserDevice, Healthy, []string{open, open}},
		{"impaired hops to a stable healthy route", inCachedSlow, core.RouteCloudThenAP,
			healths{core.RouteCloudThenAP: Impaired},
			core.RouteCloud, Healthy, []string{degraded}},
		{"impaired stays when the fallback is unstable", inHotAP, core.RouteSmartAP,
			healths{core.RouteSmartAP: Impaired},
			core.RouteSmartAP, Impaired, nil},
		{"impaired stays when the stable fallback is itself unhealthy", inCachedSlow, core.RouteCloudThenAP,
			healths{core.RouteCloudThenAP: Impaired, core.RouteCloud: Impaired},
			core.RouteCloudThenAP, Impaired, nil},
		{"a hop may land on an impaired route and stay there", inCachedSlow, core.RouteCloudThenAP,
			healths{core.RouteCloudThenAP: Unavailable, core.RouteCloud: Impaired},
			core.RouteCloud, Impaired, []string{open}},
		{"no fallback left", inUncached, core.RouteCloudPreDownload, allDown,
			core.RouteUserDevice, Unavailable, []string{open}},
		{"everything down from the longest chain", inCachedSlow, core.RouteCloudThenAP, allDown,
			core.RouteUserDevice, Unavailable, []string{open, open}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dec := core.Decide(c.in)
			if dec.Route != c.start {
				t.Fatalf("fixture drifted: Decide picked %v, the row assumes %v", dec.Route, c.start)
			}
			var look func(core.Route) Health
			if c.health != nil {
				look = func(r core.Route) Health { return c.health[r] }
			}
			got, fin, h, reasons, hops := Degrade(look, c.in, dec)
			if got.Route != c.want || h != c.wantHealth {
				t.Fatalf("Degrade → %v (health %v), want %v (health %v)", got.Route, h, c.want, c.wantHealth)
			}
			if hops != len(c.wantHops) || hops > core.NumRoutes {
				t.Fatalf("hops = %d %v, want %v", hops, reasons[:hops], c.wantHops)
			}
			for i, want := range c.wantHops {
				if reasons[i] != want {
					t.Fatalf("hop reasons = %v, want %v", reasons[:hops], c.wantHops)
				}
			}
			switch {
			case hops == 0 && (got.Reason != dec.Reason || fin != c.in):
				t.Fatalf("no hop, yet the decision or input changed: %+v / %+v", got, fin)
			case hops > 0 && got.Reason != c.wantHops[hops-1]:
				t.Fatalf("final reason %q, want the last hop's %q", got.Reason, c.wantHops[hops-1])
			}
			// The returned input is the one the final decision was made from:
			// an AP route ruled out means the re-decision ran without the AP.
			apGone := c.start != c.want && (c.start == core.RouteSmartAP || c.start == core.RouteCloudThenAP)
			if want := c.in.HasAP && !apGone; fin.HasAP != want {
				t.Fatalf("returned input has HasAP=%v after %v → %v, want %v", fin.HasAP, c.start, c.want, want)
			}
		})
	}
}

// scripted gives an inner backend a fixed health, the way the fault
// injector and the resilience layer report theirs.
type scripted struct {
	Backend
	h Health
}

func (s scripted) Health(*Request) Health { return s.h }

// TestDegradeDoesNotAllocate pins what the replay hot path relies on: a
// lookup closure over a *Fleet and a request stays on the stack, and the
// hop reasons come back by value.
func TestDegradeDoesNotAllocate(t *testing.T) {
	tr, err := workload.Generate(workload.DefaultConfig(500, 7))
	if err != nil {
		t.Fatal(err)
	}
	set := NewSet(tr.Files, cloud.DefaultConfig(float64(len(tr.Files))/cloud.FullScaleFiles, 7), 7)
	fleet := NewFleet(set).Wrap(func(b Backend) Backend {
		if b.Name() == NameForRoute(core.RouteUserDevice) {
			return scripted{b, Healthy}
		}
		return scripted{b, Unavailable}
	})
	req := resReq(1, 0)
	dec := core.Decide(inCachedSlow)
	var route core.Route
	var hops int
	allocs := testing.AllocsPerRun(200, func() {
		got, _, _, _, n := Degrade(func(r core.Route) Health { return fleet.Health(r, req) }, inCachedSlow, dec)
		route, hops = got.Route, n
	})
	if route != core.RouteUserDevice || hops != 2 {
		t.Fatalf("walk ended on %v after %d hops, want user-device after 2", route, hops)
	}
	if allocs != 0 {
		t.Fatalf("Degrade allocated %.1f objects per call, want 0", allocs)
	}
}
