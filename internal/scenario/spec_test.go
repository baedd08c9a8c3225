package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"odr/internal/workload"
)

func TestSpecNormalizedDefaults(t *testing.T) {
	got := Spec{}.Normalized()
	want := Spec{Profile: workload.ProfileBaseline, Days: 7, Files: 20000, Sample: 1000, Seed: 1}
	if got != want {
		t.Fatalf("Normalized() = %+v, want %+v", got, want)
	}
	// Explicit fields survive normalization untouched.
	s := Spec{Profile: workload.ProfileHoliday, Days: 14, Files: 5000, Sample: 200, Seed: 9}
	if got := s.Normalized(); got != s {
		t.Fatalf("Normalized() rewrote explicit fields: %+v", got)
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error; empty = valid
	}{
		{"zero", Spec{}, ""},
		{"full", Spec{Profile: "flash-crowd", Days: 30, Faults: "0.25", CachePolicy: "band", PoolDivisor: 12, WindowHours: 6}, ""},
		{"negative days", Spec{Days: -1}, "negative Days"},
		{"negative files", Spec{Files: -1}, "negative population"},
		{"negative sample", Spec{Sample: -5}, "negative population"},
		{"negative pool bytes", Spec{PoolBytes: -1}, "negative pool sizing"},
		{"pool bytes and divisor", Spec{PoolBytes: 10, PoolDivisor: 2}, "mutually exclusive"},
		{"negative window", Spec{WindowHours: -2}, "negative WindowHours"},
		{"negative workers", Spec{Workers: -1}, "negative Workers"},
		{"unknown profile", Spec{Profile: "nope"}, "nope"},
		{"bad faults", Spec{Faults: "transient=x"}, "transient"},
		{"bad policy", Spec{CachePolicy: "mru"}, "mru"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestSpecSpan(t *testing.T) {
	if got := (Spec{}).Span(); got != 7*24*time.Hour {
		t.Fatalf("zero spec Span = %v, want 168h", got)
	}
	if got := (Spec{Days: 30}).Span(); got != 30*24*time.Hour {
		t.Fatalf("30-day Span = %v, want 720h", got)
	}
}

func TestSpecWorkloadConfig(t *testing.T) {
	cfg, err := Spec{Files: 3000, Seed: 5}.WorkloadConfig()
	if err != nil {
		t.Fatal(err)
	}
	// The zero-profile spec compiles to the default calibration: same
	// scale, same week horizon, same day-load table.
	want := workload.DefaultConfig(3000, 5)
	if cfg.NumFiles != want.NumFiles || cfg.Seed != want.Seed {
		t.Fatalf("scale/seed not carried: %+v", cfg)
	}
	if cfg.Span != 7*24*time.Hour {
		t.Fatalf("baseline span = %v, want 168h", cfg.Span)
	}
	if !reflect.DeepEqual(cfg.DayLoad, want.DayLoad) {
		t.Fatalf("baseline DayLoad reshaped: %v", cfg.DayLoad)
	}

	long, err := Spec{Profile: workload.ProfileFlashCrowd, Days: 30}.WorkloadConfig()
	if err != nil {
		t.Fatal(err)
	}
	if long.Span != 30*24*time.Hour || len(long.DayLoad) != 30 {
		t.Fatalf("flash-crowd/30d: span %v, %d day weights", long.Span, len(long.DayLoad))
	}
	if _, err := (Spec{Profile: "bogus"}).WorkloadConfig(); err == nil {
		t.Fatal("unknown profile compiled")
	}
}

func TestSpecFaultSpec(t *testing.T) {
	// The schedule span pins to the scenario horizon when the spec string
	// leaves it open...
	fs, err := Spec{Days: 30, Faults: "0.25"}.FaultSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Enabled() {
		t.Fatal("intensity 0.25 parsed as disabled")
	}
	if fs.Span != 30*24*time.Hour {
		t.Fatalf("fault span = %v, want the 30-day horizon", fs.Span)
	}
	// ...and a week-long scenario matches the layer's historical default.
	fs, err = Spec{Faults: "0.25"}.FaultSpec()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Span != 7*24*time.Hour {
		t.Fatalf("week fault span = %v, want 168h", fs.Span)
	}
	// An explicit span key wins over the horizon.
	fs, err = Spec{Days: 30, Faults: "transient=0.1,span=48h"}.FaultSpec()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Span != 48*time.Hour {
		t.Fatalf("explicit span overridden: %v", fs.Span)
	}
	if _, err := (Spec{Faults: "??"}).FaultSpec(); err == nil {
		t.Fatal("malformed fault spec parsed")
	}
}

func TestSpecTimelineConfig(t *testing.T) {
	if tc := (Spec{}).TimelineConfig(); tc != nil {
		t.Fatalf("no window requested, got %+v", tc)
	}
	tc := Spec{Days: 30, WindowHours: 6}.TimelineConfig()
	if tc == nil || tc.Window != 6*time.Hour || tc.Span != 30*24*time.Hour {
		t.Fatalf("TimelineConfig = %+v, want 6h windows over 720h", tc)
	}
}

// TestSpecReplayOptions pins the compile rules the replay command's flags
// historically implemented: any non-empty fault string arms resilience
// unless Naive, and only a spec that injects something installs faults.
func TestSpecReplayOptions(t *testing.T) {
	cases := []struct {
		name           string
		spec           Spec
		faults, resil  bool
		timelineWanted bool
	}{
		{"zero", Spec{}, false, false, false},
		{"faults off aware", Spec{Faults: "0"}, false, true, false},
		{"faults off naive", Spec{Faults: "0", Naive: true}, false, false, false},
		{"faults on aware", Spec{Faults: "0.25"}, true, true, false},
		{"faults on naive", Spec{Faults: "0.25", Naive: true}, true, false, false},
		{"timeline", Spec{WindowHours: 6}, false, false, true},
	}
	for _, tc := range cases {
		opts, err := tc.spec.ReplayOptions()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := opts.Faults != nil; got != tc.faults {
			t.Errorf("%s: faults installed = %v, want %v", tc.name, got, tc.faults)
		}
		if got := opts.Resilience != nil; got != tc.resil {
			t.Errorf("%s: resilience armed = %v, want %v", tc.name, got, tc.resil)
		}
		if got := opts.Timeline != nil; got != tc.timelineWanted {
			t.Errorf("%s: timeline = %v, want %v", tc.name, got, tc.timelineWanted)
		}
	}

	// Engine knobs pass through verbatim.
	s := Spec{Seed: 9, Shards: 4, CachePolicy: "lru", PoolBytes: 123}
	opts, err := s.ReplayOptions()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Seed != 9 || opts.Shards != 4 || opts.CachePolicy != "lru" ||
		opts.PoolBytes != 123 {
		t.Fatalf("knobs not carried: %+v", opts)
	}
	if _, err := (Spec{CachePolicy: "mru"}).ReplayOptions(); err == nil {
		t.Fatal("unknown policy compiled")
	}
	if _, err := (Spec{Faults: "??"}).ReplayOptions(); err == nil {
		t.Fatal("malformed fault spec compiled")
	}
}

func TestSpecResolvePoolBytes(t *testing.T) {
	files := []*workload.FileMeta{{Size: 600}, {Size: 600}}
	if got := (Spec{PoolBytes: 999, PoolDivisor: 0}).ResolvePoolBytes(files); got != 999 {
		t.Fatalf("explicit bytes = %d, want 999", got)
	}
	if got := (Spec{PoolDivisor: 12}).ResolvePoolBytes(files); got != 100 {
		t.Fatalf("divisor 12 over 1200 bytes = %d, want 100", got)
	}
	if got := (Spec{}).ResolvePoolBytes(files); got != 0 {
		t.Fatalf("no sizing = %d, want 0 (scale default)", got)
	}
}

func TestSpecLabel(t *testing.T) {
	if got := (Spec{Name: "pinned"}).Label(); got != "pinned" {
		t.Fatalf("Label = %q", got)
	}
	if got := (Spec{}).Label(); got != "baseline/faults=off/policy=static" {
		t.Fatalf("zero Label = %q", got)
	}
	s := Spec{Profile: "flash-crowd", Faults: "0.25", CachePolicy: "band"}
	if got := s.Label(); got != "flash-crowd/faults=0.25/policy=band" {
		t.Fatalf("Label = %q", got)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := Spec{Name: "x", Profile: "holiday", Days: 14, Files: 5000, Sample: 300,
		Seed: 4, Shards: 2, Faults: "0.1",
		Naive: true, CachePolicy: "lfu", PoolDivisor: 8, WindowHours: 12, Workers: 3}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip lost fields:\n  in  %+v\n  out %+v", s, back)
	}
	// The zero spec marshals to the empty object — scenario files only
	// state what they override.
	data, err = json.Marshal(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{}" {
		t.Fatalf("zero spec marshals to %s", data)
	}
	// Decoding is non-strict: spec files written when there were
	// "stream", "chunk" and "gen_workers" keys still load, the keys
	// ignored.
	var old Spec
	if err := json.Unmarshal([]byte(`{"stream": true, "chunk": 7, "gen_workers": 2, "seed": 3}`), &old); err != nil {
		t.Fatalf("spec file with retired keys no longer loads: %v", err)
	}
	if old != (Spec{Seed: 3}) {
		t.Fatalf("retired keys decoded to %+v", old)
	}
}
