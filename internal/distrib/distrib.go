// Package distrib is the multi-process replay coordinator: it splits a
// bin trace into contiguous record windows, replays each in a worker (a
// goroutine, or a supervised worker process that serves window after
// window against one open trace, Worker), checkpoints per-window
// completion into a JSON manifest, and merges the workers' partial
// results into one report whose digest is byte-identical to a
// single-process full-stream replay of the same trace.
//
// # Why windows merge exactly
//
// Every replay outcome is a pure function of the request's GLOBAL record
// index and the trace prefix before it, never of execution order:
//
//   - each request draws from the RNG substream keyed by its global index
//     and is assigned its AP by global index, so a worker that knows its
//     window's base offset reproduces both exactly
//     (replay.RunODRWindow);
//   - the cloud's cache state (the static files already seen or a dynamic
//     policy's evolving pool) depends only on the sequence of records
//     before the current one, so the coordinator computes it once and
//     writes the cloud's observation state at every pending window's base
//     to a state file, and each worker restores its window's state instead
//     of re-reading the trace before it. replay.ObserveStates makes every
//     state. In static mode the state is one count: the census is in
//     first-appearance order, so the files seen before a base are the
//     census prefix of files first seen there, read off the census with no
//     pass over the records. Under a cache policy one sequential
//     observation pass — decode plus pool bookkeeping, no task execution —
//     builds each state;
//   - the warm-pool draws in backend construction depend on the file
//     population slice, so every worker and the single-process reference
//     hand their backends the same one: the census the bin trace's own
//     file table declares (trace.Bin.Census) — every distinct file in
//     first-appearance order, with the record it first appears at — read
//     from the trailer without decoding a record;
//   - ledgers and engine totals are associative integer sums, and task
//     records live at disjoint global indices, so per-window results
//     concatenate and add into exactly the single-process values.
//
// A worker therefore reads only its own window of the trace, and builds
// what its windows only read — identities, the census population, each
// file's pre-download outcome — once (Worker). The coordinator reads the
// census and its checkpoint (the manifest it finds, or freshly planned
// windows) before it hashes the trace, so a damaged file table fails the
// run before any window starts, and starts its one state pass over the
// checkpoint's windows right then, beside the hash; it checks the
// checkpoint once the hash lands and dispatches a window as soon as its
// state file is durable, so the pass overlaps the first wave of workers;
// a resume recomputes every state it hands out instead of trusting files
// an earlier run left behind.
//
// Partials hold each task as a replay.DigestRecord — the eight fields the
// digest reads, 48 B against an ODRTask's 128 B. The merge keeps the
// partials and copies no record, and Merged.WriteDigest streams the
// digest across the partials' own records (replay.WriteDigest) so a
// caller can hash it without building it: at its peak the coordinator
// holds ≈ 48 B per task, where whole tasks and a built digest string
// took ≈ 400.
//
// The one cross-request state this cannot reproduce is the resilience
// layer's per-user circuit breaker: its strikes and cooldowns follow
// executed outcomes — which earlier requests failed, and when — not
// observations, so no observation pass produces them, and chaining them
// from one window's execution into the next would serialise the windows.
// WorkerSpec therefore has no resilience knob and faults replay naively
// (each fault drawn from the request's own substream, which is
// window-safe). Failure-aware replays are single-process, by design.
package distrib

import (
	"encoding/json"
	"fmt"

	"odr/internal/cloud"
	"odr/internal/faults"
	"odr/internal/obs"
	"odr/internal/replay"
)

// Window is one contiguous half-open record range [Offset, Offset+Limit)
// of a bin trace.
type Window struct {
	Offset int64 `json:"offset"`
	Limit  int64 `json:"limit"`
}

// End returns the exclusive end index.
func (w Window) End() int64 { return w.Offset + w.Limit }

func (w Window) String() string {
	return fmt.Sprintf("[%d, %d)", w.Offset, w.End())
}

// PlanWindows tiles [0, total) into n contiguous non-empty windows:
// offsets strictly increase, limits are positive, consecutive windows
// abut, and the limits sum to total. Record counts that do not divide
// evenly put the extra record on the earliest windows, so no two windows
// differ by more than one record. n is clamped to [1, total]; a
// non-positive total plans nothing.
func PlanWindows(total int64, n int) []Window {
	if total <= 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if int64(n) > total {
		n = int(total)
	}
	each := total / int64(n)
	rem := total % int64(n)
	out := make([]Window, n)
	var off int64
	for i := range out {
		lim := each
		if int64(i) < rem {
			lim++
		}
		out[i] = Window{Offset: off, Limit: lim}
		off += lim
	}
	return out
}

// WorkerSpec is the replay configuration every worker (and the
// single-process verification replay) runs under. It is the distributed
// subset of a scenario spec: seed, shard count, cache policy, pool
// capacity, and naive fault injection. There is deliberately no
// resilience knob — see the package comment. The JSON form, less the
// shard count, doubles as the canonical fingerprint pinned into
// checkpoints and partials, so a resume or merge under a different
// configuration fails loudly.
type WorkerSpec struct {
	// Seed drives all randomness.
	Seed uint64 `json:"seed"`
	// Shards is the per-worker engine shard count (0 = GOMAXPROCS;
	// results are identical for any value).
	Shards int `json:"shards,omitempty"`
	// CachePolicy runs the cloud pool under the named eviction policy
	// (cloud.PolicyNames); empty keeps the static warm set. Dynamic
	// policies work distributed: each worker restores the pool the
	// coordinator's observation pass reached at its window base.
	CachePolicy string `json:"cache_policy,omitempty"`
	// PoolBytes overrides the cloud pool capacity in bytes (0 = scale
	// default).
	PoolBytes int64 `json:"pool_bytes,omitempty"`
	// Faults is an internal/faults spec string; empty injects nothing.
	// Faults always replay naively in distributed runs.
	Faults string `json:"faults,omitempty"`
	// Metrics makes each worker record into a registry and ship its
	// snapshot in the partial; the coordinator folds the snapshots into
	// one merged registry.
	Metrics bool `json:"metrics,omitempty"`
}

// Validate rejects specs that cannot compile.
func (s WorkerSpec) Validate() error {
	if s.Shards < 0 {
		return fmt.Errorf("distrib: negative shards %d", s.Shards)
	}
	if s.PoolBytes < 0 {
		return fmt.Errorf("distrib: negative pool bytes %d", s.PoolBytes)
	}
	if _, err := cloud.NewPolicy(s.CachePolicy); err != nil {
		return err
	}
	if _, err := faults.ParseSpec(s.Faults); err != nil {
		return err
	}
	return nil
}

// Fingerprint returns the spec's canonical JSON — struct fields encode in
// declaration order, so equal specs always fingerprint equally. Shards is
// left out: the shard count changes no result, so a run may resume, or
// merge partials replayed, under another.
func (s WorkerSpec) Fingerprint() string {
	s.Shards = 0
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a struct of scalars cannot fail to encode
	}
	return string(b)
}

// ReplayOptions compiles the spec into replay options. The fault spec
// installs without a resilience policy — the naive arm — because the
// failure-aware layer's circuit state follows executed outcomes, which no
// observation state carries (replay.RunODRWindow rejects it outright).
func (s WorkerSpec) ReplayOptions(reg *obs.Registry) (replay.Options, error) {
	if err := s.Validate(); err != nil {
		return replay.Options{}, err
	}
	opts := replay.Options{
		Seed:        s.Seed,
		Shards:      s.Shards,
		CachePolicy: s.CachePolicy,
		PoolBytes:   s.PoolBytes,
		Metrics:     reg,
	}
	fs, err := faults.ParseSpec(s.Faults)
	if err != nil {
		return replay.Options{}, err
	}
	if fs.Enabled() {
		opts.Faults = &fs
	}
	return opts, nil
}
