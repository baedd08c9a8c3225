// Package faults is a deterministic, seed-driven fault-injection layer
// over the backend fleet. It models the failure behaviour behind the
// paper's four bottlenecks — transient connection errors, stagnation
// (progress freezes past the client's patience), AP churn (backends gone
// for whole windows, as the Smartrouter peer-CDN measurements observed),
// and degraded-bandwidth episodes — without giving up the replay
// engine's core guarantee: byte-identical results for any shard count or
// chunk size.
//
// Determinism comes from two disciplines. Per-operation faults
// (transient, stagnation) are drawn from the request's own RNG substream
// — the same Split64-keyed stream the workload generator uses — so a
// request's injected fate is a pure function of (seed, index) no matter
// which goroutine replays it, and every retry sees a fresh draw. Episode
// faults (churn, degraded bandwidth) are precomputed windows on the
// trace clock, derived once per backend from the run seed, so whether a
// request lands inside an episode is a pure function of (seed,
// request time).
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"odr/internal/dist"
)

// DefaultSpan is the episode schedule's horizon: the workload trace's
// one-week window.
const DefaultSpan = 7 * 24 * time.Hour

// DefaultGiveUp is how long a client watches a stagnated transfer before
// abandoning it, mirroring the backends' own stagnation timeout.
const DefaultGiveUp = time.Hour

// Episode shape constants: mean churn outage and degraded-episode
// lengths, the connection-failure stall charged when a backend is
// offline, and the mean stall of a transient error. Failure *rates* are
// the Spec's knobs; these shapes stay fixed so specs compose simply.
const (
	churnMeanDur    = 30 * time.Minute
	degradedMeanDur = 2 * time.Hour
	offlineStall    = 30 * time.Second
	transientStall  = 30 * time.Second
	degradedFloorBW = 0.05
	degradedCeilBW  = 0.5
)

// MetricInjected counts injected faults, labeled by backend and class
// (offline, transient, stagnation, degraded).
const MetricInjected = "odr_faults_injected_total"

// Spec sets the fault intensity per class. The zero value injects
// nothing (and wrapping with it is a bit-exact no-op: no draws, no
// windows).
type Spec struct {
	// Transient is the per-operation probability of a short-lived
	// connection/protocol failure.
	Transient float64
	// Stagnation is the per-operation probability that progress freezes
	// for an Exponential(GiveUp/2) duration; freezes reaching GiveUp
	// fail the operation.
	Stagnation float64
	// Churn is the fraction of the span each infrastructure backend
	// (cloud, smart AP, cloud+smart-AP) spends offline, in
	// Exponential(30m) windows. The user's own device never churns —
	// the user is present to make the request.
	Churn float64
	// Degraded is the fraction of the span each infrastructure backend
	// spends in degraded-bandwidth episodes (rates multiplied by a drawn
	// factor in [0.05, 0.5]).
	Degraded float64
	// GiveUp is the stagnation patience (default DefaultGiveUp).
	GiveUp time.Duration
	// Span is the episode schedule horizon (default DefaultSpan).
	Span time.Duration
}

// Enabled reports whether the spec injects anything.
func (s Spec) Enabled() bool {
	return s.Transient > 0 || s.Stagnation > 0 || s.Churn > 0 || s.Degraded > 0
}

// withDefaults fills the shape fields.
func (s Spec) withDefaults() Spec {
	if s.GiveUp <= 0 {
		s.GiveUp = DefaultGiveUp
	}
	if s.Span <= 0 {
		s.Span = DefaultSpan
	}
	return s
}

// Preset scales the reference fault mix to an intensity in [0, 1]:
// intensity 1 means a quarter of operations fail transiently, 15%
// stagnate, and each infrastructure backend is offline 20% and degraded
// 25% of the week. EXP-F sweeps this knob.
func Preset(intensity float64) Spec {
	if intensity < 0 {
		intensity = 0
	}
	if intensity > 1 {
		intensity = 1
	}
	return Spec{
		Transient:  0.25 * intensity,
		Stagnation: 0.15 * intensity,
		Churn:      0.20 * intensity,
		Degraded:   0.25 * intensity,
	}
}

// String renders the spec in ParseSpec's syntax: ParseSpec(s.String())
// is s up to defaults. GiveUp and Span appear only when they differ from
// DefaultGiveUp and DefaultSpan; a spec with nothing to say is "off".
func (s Spec) String() string {
	parts := make([]string, 0, 6)
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("transient", s.Transient)
	add("stagnation", s.Stagnation)
	add("churn", s.Churn)
	add("degraded", s.Degraded)
	d := s.withDefaults()
	if d.GiveUp != DefaultGiveUp {
		parts = append(parts, "giveup="+d.GiveUp.String())
	}
	if d.Span != DefaultSpan {
		parts = append(parts, "span="+d.Span.String())
	}
	if len(parts) == 0 {
		return "off"
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a -faults flag value. Accepted forms:
//
//	""            no faults (also "off", "none")
//	"0.3"         Preset(0.3)
//	"intensity=0.3"
//	"transient=0.1,churn=0.05,giveup=30m"
//
// Class keys take probabilities/fractions in [0, 1]; giveup and span
// take Go durations. Keys compose left to right, so
// "intensity=0.5,churn=0" starts from the preset and switches churn off.
func ParseSpec(text string) (Spec, error) {
	text = strings.TrimSpace(text)
	switch text {
	case "", "off", "none":
		return Spec{}, nil
	}
	if v, err := strconv.ParseFloat(text, 64); err == nil {
		return Preset(v), nil
	}
	var spec Spec
	for _, part := range strings.Split(text, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: %q is not key=value", part)
		}
		if k == "giveup" || k == "span" {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return Spec{}, fmt.Errorf("faults: %s needs a positive duration, got %q", k, v)
			}
			if k == "giveup" {
				spec.GiveUp = d
			} else {
				spec.Span = d
			}
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			return Spec{}, fmt.Errorf("faults: %s needs a value in [0,1], got %q", k, v)
		}
		switch k {
		case "intensity":
			p := Preset(f)
			p.GiveUp, p.Span = spec.GiveUp, spec.Span
			spec = p
		case "transient":
			spec.Transient = f
		case "stagnation":
			spec.Stagnation = f
		case "churn":
			spec.Churn = f
		case "degraded":
			spec.Degraded = f
		default:
			return Spec{}, fmt.Errorf("faults: unknown key %q (want intensity, transient, stagnation, churn, degraded, giveup, span)", k)
		}
	}
	return spec, nil
}

// window is one closed-open [From, To) episode on the trace clock.
type window struct{ From, To time.Duration }

// schedule is a sorted, non-overlapping episode list.
type schedule []window

// at reports whether t falls inside an episode.
func (s schedule) at(t time.Duration) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].To > t })
	return i < len(s) && s[i].From <= t
}

// coverage returns the total episode time.
func (s schedule) coverage() time.Duration {
	var sum time.Duration
	for _, w := range s {
		sum += w.To - w.From
	}
	return sum
}

// makeSchedule draws an alternating up/down renewal process covering
// frac of span in Exponential(meanDur) episodes. All draws come from rng
// — a substream keyed by (seed, backend name, class) — so the schedule
// is a pure function of those three values.
func makeSchedule(rng *dist.RNG, frac float64, span, meanDur time.Duration) schedule {
	if frac <= 0 || span <= 0 {
		return nil
	}
	if frac >= 1 {
		return schedule{{0, span}}
	}
	meanGap := time.Duration(float64(meanDur) * (1 - frac) / frac)
	var s schedule
	cursor := time.Duration(rng.Exponential(float64(meanGap)))
	for cursor < span {
		dur := time.Duration(rng.Exponential(float64(meanDur)))
		if dur <= 0 {
			dur = time.Second
		}
		end := cursor + dur
		if end > span {
			end = span
		}
		s = append(s, window{cursor, end})
		cursor = end + time.Duration(rng.Exponential(float64(meanGap)))
	}
	return s
}

// infrastructure reports whether a backend rides on shared
// infrastructure that churns and congests (everything but the user's own
// device).
func infrastructure(name string) bool { return name != "user-device" }

// schedulesFor derives a backend's churn and degraded schedules from the
// run seed. The derivation path — root seed → "faults" → class:name —
// mirrors the workload generator's Split discipline, so fault schedules
// never correlate with workload draws.
func schedulesFor(spec Spec, seed uint64, name string) (offline, slow schedule) {
	if !infrastructure(name) {
		return nil, nil
	}
	root := dist.NewRNG(seed).Split("faults")
	if spec.Churn > 0 {
		offline = makeSchedule(root.Split("churn:"+name), spec.Churn, spec.Span, churnMeanDur)
	}
	if spec.Degraded > 0 {
		slow = makeSchedule(root.Split("degraded:"+name), spec.Degraded, spec.Span, degradedMeanDur)
	}
	return offline, slow
}
