package faults

import (
	"testing"
	"time"

	"odr/internal/backend"
	"odr/internal/dist"
	"odr/internal/obs"
	"odr/internal/workload"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		err  bool
	}{
		{in: "", want: Spec{}},
		{in: "off", want: Spec{}},
		{in: "none", want: Spec{}},
		{in: " 0.4 ", want: Preset(0.4)},
		{in: "1", want: Preset(1)},
		{in: "intensity=0.4", want: Preset(0.4)},
		{in: "transient=0.1,churn=0.05", want: Spec{Transient: 0.1, Churn: 0.05}},
		{in: "stagnation=0.2,degraded=1", want: Spec{Stagnation: 0.2, Degraded: 1}},
		{in: "giveup=30m,transient=0.5", want: Spec{Transient: 0.5, GiveUp: 30 * time.Minute}},
		{in: "span=48h", want: Spec{Span: 48 * time.Hour}},
		// Keys compose left to right: the preset fills everything, then
		// churn is switched back off.
		{in: "intensity=1,churn=0", want: Spec{Transient: 0.25, Stagnation: 0.15, Degraded: 0.25}},
		{in: "bogus", err: true},
		{in: "transient=1.5", err: true},
		{in: "transient=-0.1", err: true},
		{in: "transient=abc", err: true},
		{in: "unknownkey=0.1", err: true},
		{in: "giveup=0s", err: true},
		{in: "giveup=-5m", err: true},
		{in: "span=soon", err: true},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseSpec(%q) = %+v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestPresetClampsIntensity(t *testing.T) {
	if got := Preset(-2); got.Enabled() {
		t.Errorf("Preset(-2) = %+v, want disabled", got)
	}
	if got, want := Preset(7), Preset(1); got != want {
		t.Errorf("Preset(7) = %+v, want Preset(1) = %+v", got, want)
	}
}

// TestSpecStringRoundTrips: String renders ParseSpec syntax, so parsing
// it back yields the spec again, up to defaults — the shape fields
// included. Default shapes stay unspoken, which keeps every rendering of a
// week-long spec what it always was.
func TestSpecStringRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{}, "off"},
		{Spec{GiveUp: DefaultGiveUp, Span: DefaultSpan}, "off"},
		{Spec{Transient: 0.1, Churn: 0.25}, "transient=0.1,churn=0.25"},
		{Preset(0.25), "transient=0.0625,stagnation=0.0375,churn=0.05,degraded=0.0625"},
		{Spec{Churn: 0.3, Span: DefaultSpan}, "churn=0.3"},
		{Spec{Stagnation: 0.2, GiveUp: 30 * time.Minute}, "stagnation=0.2,giveup=30m0s"},
		{Spec{Degraded: 1, Span: 30 * 24 * time.Hour}, "degraded=1,span=720h0m0s"},
		{Spec{Transient: 0.5, GiveUp: 90 * time.Second, Span: 48 * time.Hour},
			"transient=0.5,giveup=1m30s,span=48h0m0s"},
		{Spec{Span: 48 * time.Hour}, "span=48h0m0s"},
	} {
		text := tc.spec.String()
		if text != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.spec, text, tc.want)
		}
		back, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if back.withDefaults() != tc.spec.withDefaults() {
			t.Errorf("round trip %q -> %#v, want %#v", text, back, tc.spec)
		}
	}
}

func TestScheduleAt(t *testing.T) {
	s := schedule{{From: 10 * time.Minute, To: 20 * time.Minute},
		{From: time.Hour, To: 2 * time.Hour}}
	cases := []struct {
		at   time.Duration
		want bool
	}{
		{0, false},
		{10 * time.Minute, true}, // closed start
		{15 * time.Minute, true},
		{20 * time.Minute, false}, // open end
		{30 * time.Minute, false},
		{90 * time.Minute, true},
		{3 * time.Hour, false},
	}
	for _, tc := range cases {
		if got := s.at(tc.at); got != tc.want {
			t.Errorf("at(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if got, want := s.coverage(), 70*time.Minute; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if (schedule)(nil).at(time.Hour) {
		t.Error("empty schedule claims an episode")
	}
}

func TestMakeSchedule(t *testing.T) {
	rng := dist.NewRNG(7).Split("sched")
	span := 7 * 24 * time.Hour
	s := makeSchedule(rng, 0.2, span, 30*time.Minute)
	if len(s) == 0 {
		t.Fatal("no windows at frac 0.2")
	}
	var prev time.Duration
	for _, w := range s {
		if w.From < prev || w.To <= w.From || w.To > span {
			t.Fatalf("malformed window %+v (prev end %v)", w, prev)
		}
		prev = w.To
	}
	// The renewal process targets 20% coverage; a whole week of
	// Exponential(30m) windows concentrates well enough for wide bounds.
	frac := float64(s.coverage()) / float64(span)
	if frac < 0.08 || frac > 0.40 {
		t.Errorf("coverage = %.3f of span, want ≈0.20", frac)
	}
	if full := makeSchedule(rng, 1, span, 30*time.Minute); len(full) != 1 ||
		full[0] != (window{0, span}) {
		t.Errorf("frac 1 schedule = %+v, want one full-span window", full)
	}
	if off := makeSchedule(rng, 0, span, 30*time.Minute); off != nil {
		t.Errorf("frac 0 schedule = %+v, want nil", off)
	}
}

func TestSchedulesForDeterministic(t *testing.T) {
	spec := Preset(0.5).withDefaults()
	off1, slow1 := schedulesFor(spec, 99, "cloud")
	off2, slow2 := schedulesFor(spec, 99, "cloud")
	if len(off1) == 0 || len(slow1) == 0 {
		t.Fatal("cloud schedules empty at intensity 0.5")
	}
	for i := range off1 {
		if off1[i] != off2[i] {
			t.Fatalf("offline schedule not reproducible at window %d", i)
		}
	}
	for i := range slow1 {
		if slow1[i] != slow2[i] {
			t.Fatalf("slow schedule not reproducible at window %d", i)
		}
	}
	apOff, _ := schedulesFor(spec, 99, "smart-ap")
	same := len(apOff) == len(off1)
	if same {
		for i := range apOff {
			if apOff[i] != off1[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("cloud and smart-ap drew identical churn schedules")
	}
	if off, slow := schedulesFor(spec, 99, "user-device"); off != nil || slow != nil {
		t.Errorf("user-device got episode schedules: %v / %v", off, slow)
	}
}

func TestClock(t *testing.T) {
	c := NewClock(Spec{Churn: 1}, 3)
	if got := c.Span(); got != DefaultSpan {
		t.Errorf("Span = %v, want %v", got, DefaultSpan)
	}
	for _, at := range []time.Duration{0, time.Hour, 6 * 24 * time.Hour} {
		if h := c.Health("cloud", at); h != backend.Unavailable {
			t.Errorf("churn=1 cloud health(%v) = %v, want Unavailable", at, h)
		}
		if h := c.Health("user-device", at); h != backend.Healthy {
			t.Errorf("user-device health(%v) = %v, want Healthy", at, h)
		}
	}
	slow := NewClock(Spec{Degraded: 1}, 3)
	if h := slow.Health("smart-ap", time.Hour); h != backend.Impaired {
		t.Errorf("degraded=1 smart-ap health = %v, want Impaired", h)
	}
}

// stubBackend is a scripted inner backend for injector tests.
type stubBackend struct {
	name   string
	led    backend.Ledger
	probe  bool
	pre    backend.PreResult
	fetch  backend.FetchResult
	preN   int
	fetchN int
}

func (s *stubBackend) Name() string                                   { return s.name }
func (s *stubBackend) Ledger() *backend.Ledger                        { return &s.led }
func (s *stubBackend) Probe(*backend.Request) bool                    { return s.probe }
func (s *stubBackend) PreDownload(*backend.Request) backend.PreResult { s.preN++; return s.pre }
func (s *stubBackend) Fetch(*backend.Request) backend.FetchResult     { s.fetchN++; return s.fetch }

func okStub(name string) *stubBackend {
	return &stubBackend{
		name:  name,
		probe: true,
		pre:   backend.PreResult{OK: true, Rate: 1 << 20, Delay: time.Minute},
		fetch: backend.FetchResult{OK: true, Rate: 1 << 20},
	}
}

// testReq builds a request with an index-keyed substream, the same
// derivation discipline the replay engine uses.
func testReq(seed uint64, i int, when time.Duration) *backend.Request {
	return &backend.Request{
		Index: i,
		User:  &workload.User{ID: i, AccessBW: 2 << 20},
		File:  &workload.FileMeta{Size: 8 << 20},
		RNG:   dist.NewRNG(seed).Split("req").Split64(uint64(i)),
		When:  when,
	}
}

func TestInjectorZeroSpecIsBitExactNoOp(t *testing.T) {
	inner := okStub("cloud")
	j := New(inner, Spec{}, 11, nil)
	req := testReq(1, 0, time.Hour)
	if !j.Probe(req) {
		t.Error("probe flipped with zero spec")
	}
	if out := j.PreDownload(req); out != inner.pre {
		t.Errorf("pre = %+v, want passthrough %+v", out, inner.pre)
	}
	if out := j.Fetch(req); out != inner.fetch {
		t.Errorf("fetch = %+v, want passthrough %+v", out, inner.fetch)
	}
	// No draws were consumed: the substream is still position-identical
	// to an untouched twin.
	twin := testReq(1, 0, time.Hour)
	if a, b := req.RNG.Float64(), twin.RNG.Float64(); a != b {
		t.Errorf("zero spec consumed RNG draws: next draw %v vs %v", a, b)
	}
	if h := j.Health(req); h != backend.Healthy {
		t.Errorf("health = %v, want Healthy", h)
	}
}

func TestInjectorDeterministic(t *testing.T) {
	spec := Preset(0.8)
	run := func() []backend.PreResult {
		j := New(okStub("cloud"), spec, 11, nil)
		out := make([]backend.PreResult, 0, 200)
		for i := 0; i < 200; i++ {
			out = append(out, j.PreDownload(testReq(5, i, time.Duration(i)*time.Hour)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: %+v != %+v", i, a[i], b[i])
		}
	}
}

func TestInjectorOfflineWindows(t *testing.T) {
	j := New(okStub("cloud"), Spec{Churn: 1}, 11, nil)
	req := testReq(2, 3, time.Hour)
	if j.Probe(req) {
		t.Error("probe answered inside an offline window")
	}
	pre := j.PreDownload(req)
	if pre.OK || pre.Cause != backend.CauseOffline || pre.Delay != offlineStall {
		t.Errorf("pre = %+v, want offline failure with %v stall", pre, offlineStall)
	}
	f := j.Fetch(req)
	if f.OK || f.Cause != backend.CauseOffline {
		t.Errorf("fetch = %+v, want offline failure", f)
	}
	if h := j.Health(req); h != backend.Unavailable {
		t.Errorf("health = %v, want Unavailable", h)
	}
	// user-device never churns: same spec, full passthrough.
	ud := New(okStub("user-device"), Spec{Churn: 1}, 11, nil)
	if out := ud.PreDownload(req); !out.OK {
		t.Errorf("user-device pre = %+v, want passthrough success", out)
	}
}

func TestInjectorTransient(t *testing.T) {
	reg := obs.NewRegistry()
	j := New(okStub("cloud"), Spec{Transient: 1}, 11, reg)
	req := testReq(3, 0, time.Hour)
	pre := j.PreDownload(req)
	if pre.OK || pre.Cause != backend.CauseTransient {
		t.Errorf("pre = %+v, want transient failure", pre)
	}
	if j.Probe(req) {
		t.Error("probe survived transient=1")
	}
	f := j.Fetch(req)
	if f.OK || f.Cause != backend.CauseTransient {
		t.Errorf("fetch = %+v, want transient failure", f)
	}
	snap := reg.Snapshot()
	key := obs.Label(MetricInjected, "backend", "cloud", "class", "transient")
	if got := snap.Counters[key]; got != 3 {
		t.Errorf("%s = %d, want 3", key, got)
	}
	// Transient faults never enter the backend's Health view: they are
	// per-operation, not episodes.
	if h := j.Health(req); h != backend.Healthy {
		t.Errorf("health = %v, want Healthy", h)
	}
}

func TestInjectorStagnation(t *testing.T) {
	spec := Spec{Stagnation: 1, GiveUp: time.Hour}
	j := New(okStub("cloud"), spec, 11, nil)
	var fails, survives int
	for i := 0; i < 300; i++ {
		out := j.PreDownload(testReq(4, i, time.Hour))
		if out.OK {
			survives++
			if out.Delay <= time.Minute {
				t.Fatalf("request %d: survivable freeze added no delay: %+v", i, out)
			}
			if out.Delay >= time.Minute+spec.GiveUp {
				t.Fatalf("request %d: survivable freeze %v reached the give-up bound", i, out.Delay)
			}
		} else {
			fails++
			if out.Cause != backend.CauseStagnation {
				t.Fatalf("request %d: cause %q, want stagnation", i, out.Cause)
			}
			if out.Delay != time.Minute+spec.GiveUp {
				t.Fatalf("request %d: failed stagnation delay %v, want pre delay + give-up", i, out.Delay)
			}
		}
	}
	// Exponential(GiveUp/2) exceeds GiveUp with probability e^-2 ≈ 13.5%.
	if fails == 0 || survives == 0 {
		t.Errorf("stagnation never exercised both branches: %d fails, %d survivals", fails, survives)
	}
}

func TestInjectorDegraded(t *testing.T) {
	inner := okStub("smart-ap")
	j := New(inner, Spec{Degraded: 1}, 11, nil)
	req := testReq(6, 0, time.Hour)
	if h := j.Health(req); h != backend.Impaired {
		t.Errorf("health = %v, want Impaired", h)
	}
	f := j.Fetch(req)
	if !f.OK {
		t.Fatalf("degraded episode failed the fetch: %+v", f)
	}
	lo, hi := degradedFloorBW*inner.fetch.Rate, degradedCeilBW*inner.fetch.Rate
	if f.Rate < lo || f.Rate > hi {
		t.Errorf("degraded rate = %.0f, want in [%.0f, %.0f]", f.Rate, lo, hi)
	}
	pre := j.PreDownload(testReq(6, 1, time.Hour))
	if !pre.OK {
		t.Fatalf("degraded episode failed the pre-download: %+v", pre)
	}
	if pre.Rate >= inner.pre.Rate || pre.Delay <= inner.pre.Delay {
		t.Errorf("degraded pre = rate %.0f delay %v, want slower and longer than %+v",
			pre.Rate, pre.Delay, inner.pre)
	}
}

func TestInjectorPassesModelFailuresThrough(t *testing.T) {
	inner := okStub("cloud")
	inner.pre = backend.PreResult{Cause: "no-seeds", Delay: 2 * time.Hour}
	j := New(inner, Spec{Stagnation: 1, Degraded: 1}, 11, nil)
	out := j.PreDownload(testReq(8, 0, time.Hour))
	if out.OK || out.Cause != "no-seeds" || out.Delay != 2*time.Hour {
		t.Errorf("model failure mutated by injector: %+v", out)
	}
	if backend.IsFaultCause(out.Cause) {
		t.Error("model failure classified as a fault")
	}
}

// TestInjectorTallyMatchesCounters: injections charged to requests'
// tallies and folded (FoldTally) count exactly what the same requests
// count straight into the injector's counters, split across two tallies
// as two engine shards would hold them. A backend with no tally slot
// counts straight into the counters even on a tallied request.
func TestInjectorTallyMatchesCounters(t *testing.T) {
	spec := Preset(0.8)
	run := func(name string, tallied bool) *obs.Snapshot {
		reg := obs.NewRegistry()
		j := New(okStub(name), spec, 11, reg)
		shards := []*backend.Tally{new(backend.Tally), new(backend.Tally)}
		for i := 0; i < 400; i++ {
			req := testReq(5, i, time.Duration(i)*37*time.Minute)
			if tallied {
				req.Tally = shards[i%2]
			}
			j.Probe(req)
			j.PreDownload(req)
			j.Fetch(req)
		}
		if tallied {
			for _, tl := range shards {
				j.FoldTally(tl)
			}
		}
		return reg.Snapshot()
	}
	for _, name := range []string{"cloud", "smart-ap", "user-device", "cloud+smart-ap", "other"} {
		got, want := run(name, true), run(name, false)
		if len(want.Counters) != len(classNames) {
			t.Fatalf("%s: %d injection counters, want %d", name, len(want.Counters), len(classNames))
		}
		var total uint64
		for c, n := range want.Counters {
			total += n
			if got.Counters[c] != n {
				t.Fatalf("%s: %s = %d tallied, %d counted", name, c, got.Counters[c], n)
			}
		}
		if total == 0 {
			t.Fatalf("%s: nothing injected", name)
		}
	}
}
