// Package scenario is the declarative layer over the replay stack: one
// Spec names a workload profile, scale, horizon, fault schedule,
// resilience mode, cache policy, pool pressure, timeline window, and
// engine shard count, and compiles them onto the existing knobs
// (workload.Config, replay.Options). Commands, experiments, and the
// matrix runner all derive their wiring from the same Spec, so a
// scenario means the same numbers wherever it runs.
package scenario

import (
	"fmt"
	"strings"
	"time"

	"odr/internal/backend"
	"odr/internal/cloud"
	"odr/internal/faults"
	"odr/internal/replay"
	"odr/internal/workload"
)

// Spec declares one replay scenario. The zero value compiles to the
// week-long baseline at the default scale; every field overrides exactly
// one knob of the underlying layers. Specs marshal to flat JSON, so a
// scenario file is the complete, reproducible description of a run.
type Spec struct {
	// Name labels the scenario in reports; Label derives one when empty.
	Name string `json:"name,omitempty"`
	// Profile is a workload load-pattern profile
	// (workload.ProfileNames); empty means baseline.
	Profile string `json:"profile,omitempty"`
	// Days is the trace horizon in whole days (0 = the default week).
	Days int `json:"days,omitempty"`
	// Files sizes the synthetic file population (0 = 20000).
	Files int `json:"files,omitempty"`
	// Sample is the §5.1 Unicom replay sample size (0 = 1000).
	Sample int `json:"sample,omitempty"`
	// Seed drives all randomness (0 = 1).
	Seed uint64 `json:"seed,omitempty"`
	// Shards is the engine shard count (0 = GOMAXPROCS; results are
	// identical for any value).
	Shards int `json:"shards,omitempty"`
	// Faults is an internal/faults spec string: an intensity ("0.25") or
	// per-class rates ("transient=0.1,churn=0.05"). Empty injects
	// nothing. A non-empty spec — even "0" — also arms the
	// failure-aware resilience policy unless Naive is set, mirroring the
	// replay command's historical flag semantics.
	Faults string `json:"faults,omitempty"`
	// Naive disables the failure-aware routing policy, so injected
	// faults fail tasks outright (the EXP-F baseline arm).
	Naive bool `json:"naive,omitempty"`
	// CachePolicy runs the cloud pool under the named eviction policy
	// (cloud.PolicyNames); empty keeps the static warm set.
	CachePolicy string `json:"cache_policy,omitempty"`
	// PoolBytes overrides the cloud pool capacity in bytes.
	PoolBytes int64 `json:"pool_bytes,omitempty"`
	// PoolDivisor, when PoolBytes is zero, squeezes the pool to
	// (population bytes / PoolDivisor) — the relative pressure form the
	// cache tournament uses, resolved once the population is known.
	PoolDivisor int64 `json:"pool_divisor,omitempty"`
	// WindowHours, when positive, builds a windowed observability
	// timeline with this window width over the scenario span.
	WindowHours float64 `json:"window_hours,omitempty"`
	// Workers is the distributed-replay worker count for coordinated runs
	// (cmd/odrcoord); 0 means single-process. Only the coordinator reads
	// it — every other consumer replays in-process regardless.
	Workers int `json:"workers,omitempty"`
}

// Normalized fills the scale defaults (week horizon, 20000 files, 1000
// samples, seed 1) and returns the result. Compilation methods use
// fields verbatim, so callers composing options by hand (the experiments
// lab pins its own seed and scale) skip normalization entirely.
func (s Spec) Normalized() Spec {
	if s.Days <= 0 {
		s.Days = 7
	}
	if s.Files <= 0 {
		s.Files = 20000
	}
	if s.Sample <= 0 {
		s.Sample = 1000
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Profile == "" {
		s.Profile = workload.ProfileBaseline
	}
	return s
}

// Validate rejects specs that cannot compile: unknown profiles, fault
// specs, or cache policies, and malformed scalars.
func (s Spec) Validate() error {
	if s.Days < 0 {
		return fmt.Errorf("scenario: negative Days %d", s.Days)
	}
	if s.Files < 0 || s.Sample < 0 {
		return fmt.Errorf("scenario: negative population (files %d, sample %d)", s.Files, s.Sample)
	}
	if s.PoolBytes < 0 || s.PoolDivisor < 0 {
		return fmt.Errorf("scenario: negative pool sizing (bytes %d, divisor %d)", s.PoolBytes, s.PoolDivisor)
	}
	if s.PoolBytes > 0 && s.PoolDivisor > 0 {
		return fmt.Errorf("scenario: PoolBytes and PoolDivisor are mutually exclusive")
	}
	if s.WindowHours < 0 {
		return fmt.Errorf("scenario: negative WindowHours %g", s.WindowHours)
	}
	if s.Workers < 0 {
		return fmt.Errorf("scenario: negative Workers %d", s.Workers)
	}
	if _, err := s.WorkloadConfig(); err != nil {
		return err
	}
	if _, err := faults.ParseSpec(s.Faults); err != nil {
		return err
	}
	if _, err := cloud.NewPolicy(s.CachePolicy); err != nil {
		return err
	}
	return nil
}

// Span returns the trace horizon the spec covers.
func (s Spec) Span() time.Duration {
	days := s.Days
	if days <= 0 {
		days = 7
	}
	return time.Duration(days) * 24 * time.Hour
}

// WorkloadConfig compiles the workload side of the spec: the default §3
// calibration at the spec's scale, reshaped by the load-pattern profile
// over the spec's horizon.
func (s Spec) WorkloadConfig() (workload.Config, error) {
	files := s.Files
	if files <= 0 {
		files = 20000
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	cfg := workload.DefaultConfig(files, seed)
	if err := workload.ApplyProfile(&cfg, s.Profile, s.Days); err != nil {
		return workload.Config{}, err
	}
	return cfg, nil
}

// FaultSpec parses the fault string and pins its episode schedule to the
// scenario horizon: an explicit span=… key wins, otherwise the schedule
// covers the whole trace, so a 30-day scenario gets 30 days of episodes
// instead of the layer's 7-day default silently going quiet after week
// one. For week-long scenarios this matches the historical default
// exactly.
func (s Spec) FaultSpec() (faults.Spec, error) {
	fs, err := faults.ParseSpec(s.Faults)
	if err != nil {
		return faults.Spec{}, err
	}
	if fs.Span == 0 {
		fs.Span = s.Span()
	}
	return fs, nil
}

// TimelineConfig compiles the timeline side of the spec; nil when no
// window is requested.
func (s Spec) TimelineConfig() *replay.TimelineConfig {
	if s.WindowHours <= 0 {
		return nil
	}
	return &replay.TimelineConfig{
		Window: time.Duration(s.WindowHours * float64(time.Hour)),
		Span:   s.Span(),
	}
}

// ReplayOptions compiles the replay side of the spec. The faults/naive
// semantics reproduce the replay command's flag wiring bit for bit: a
// parsed spec that injects anything is installed, and any non-empty
// fault string arms the resilience policy unless Naive — so "0" means
// "failure-aware routing, nothing injected", the EXP-F aware arm at
// intensity zero.
func (s Spec) ReplayOptions() (replay.Options, error) {
	if _, err := cloud.NewPolicy(s.CachePolicy); err != nil {
		return replay.Options{}, err
	}
	opts := replay.Options{
		Seed:        s.Seed,
		Shards:      s.Shards,
		CachePolicy: s.CachePolicy,
		PoolBytes:   s.PoolBytes,
		Timeline:    s.TimelineConfig(),
	}
	fs, err := s.FaultSpec()
	if err != nil {
		return replay.Options{}, err
	}
	if fs.Enabled() {
		opts.Faults = &fs
	}
	if !s.Naive && (fs.Enabled() || s.Faults != "") {
		opts.Resilience = &backend.RetryPolicy{}
	}
	return opts, nil
}

// ResolvePoolBytes turns the spec's pool sizing into concrete bytes once
// the file population is known: an explicit PoolBytes wins, a
// PoolDivisor squeezes the pool to population/divisor, zero keeps the
// scale default.
func (s Spec) ResolvePoolBytes(files []*workload.FileMeta) int64 {
	if s.PoolBytes > 0 || s.PoolDivisor <= 0 {
		return s.PoolBytes
	}
	var pop int64
	for _, f := range files {
		pop += f.Size
	}
	return pop / s.PoolDivisor
}

// Label returns the spec's report label: Name when set, otherwise the
// profile/faults/policy coordinates that identify a matrix cell.
func (s Spec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	profile := s.Profile
	if profile == "" {
		profile = workload.ProfileBaseline
	}
	fault := s.Faults
	if fault == "" {
		fault = "off"
	}
	policy := s.CachePolicy
	if policy == "" {
		policy = "static"
	}
	return strings.Join([]string{profile, "faults=" + fault, "policy=" + policy}, "/")
}
