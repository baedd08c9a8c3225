package backend

import (
	"time"

	"odr/internal/obs"
)

// Tally is one replay shard's backend accounting in plain integers: for
// each backend of the standard fleet, its ledger's counts, its probe,
// pre-download and fetch outcomes and histograms, the fault injector's
// injections and the resilience policy's retries, breaker opens and
// latest trace time. The replay engine gives each shard one, on the
// pooled Request every backend call of the shard receives
// (Request.Tally), and a request carrying one is charged there instead of
// into the shared ledgers, metric handles and wrapper counters, so the
// shard's per-record path writes only memory it owns. After the engine's
// barrier, Fleet.Fold (Set.Fold for a run without wrappers) adds each
// shard's tally into that shared state. Every count is an integer sum and
// the trace time a max, so the folded totals are exactly what recording
// straight into the shared state gives, for any shard count or order.
// A request with no tally records straight into the shared state.
type Tally struct {
	slots [numSlots]SlotTally
}

// The standard fleet's backends numbered in Set.All() order: their slots
// in a Tally.
const (
	slotCloud = iota
	slotSmartAP
	slotUserDevice
	slotCloudThenAP
	numSlots
)

// TallySlot numbers a standard backend by name, in Set.All() order, for
// wrappers that tally on their inner backend's behalf (the fault
// injector, Resilient). Any other name is -1: a request's tally has no
// slot for it, and its counts go straight to the shared state.
func TallySlot(name string) int {
	switch name {
	case "cloud":
		return slotCloud
	case "smart-ap":
		return slotSmartAP
	case "user-device":
		return slotUserDevice
	case "cloud+smart-ap":
		return slotCloudThenAP
	}
	return -1
}

// Slot returns the counts for the backend numbered i (TallySlot); nil
// when t is nil or i is -1, which tells the caller to record into the
// shared state.
func (t *Tally) Slot(i int) *SlotTally {
	if t == nil || i < 0 {
		return nil
	}
	return &t.slots[i]
}

// SlotTally is one backend's share of a Tally.
type SlotTally struct {
	ledger                                                  ledgerCounts
	probeHit, probeMiss, preOK, preFail, fetchOK, fetchFail uint64
	preSeconds, fetchBytes                                  obs.Counts
	// Faults counts the fault injector's injections, in its class order.
	Faults         [4]uint64
	retries, opens uint64
	maxWhen        time.Duration
}

// ledgerCounts is a Ledger's five counts in plain integers.
type ledgerCounts struct {
	preDownloads, fetches, failures, bytesOut, bytesOutHP int64
}

// Folder is a wrapper that charges its own counts to a request's Tally.
// FoldTally adds a shard's tally into the wrapper's shared state and
// passes it down to the backend it wraps when that is a Folder too.
// Fleet.Fold calls it on each wrapper the fleet holds.
type Folder interface {
	FoldTally(t *Tally)
}

// FoldInner passes a tally down to inner, the backend a wrapper wraps,
// when inner is a Folder.
func FoldInner(inner Backend, t *Tally) {
	if f, ok := inner.(Folder); ok {
		f.FoldTally(t)
	}
}

// Fold adds a shard's tally into the set's ledgers and metric handles.
// Call it once per tally, after the shard's last request.
func (s *Set) Fold(t *Tally) {
	s.Cloud.ledger.add(&t.slots[slotCloud].ledger)
	s.Cloud.met.add(&t.slots[slotCloud])
	s.SmartAP.ledger.add(&t.slots[slotSmartAP].ledger)
	s.SmartAP.met.add(&t.slots[slotSmartAP])
	s.UserDevice.ledger.add(&t.slots[slotUserDevice].ledger)
	s.UserDevice.met.add(&t.slots[slotUserDevice])
	s.CloudThenAP.ledger.add(&t.slots[slotCloudThenAP].ledger)
	s.CloudThenAP.met.add(&t.slots[slotCloudThenAP])
}

// Fold adds a shard's tally into the fleet: the set's ledgers and metric
// handles (Set.Fold), then each distinct wrapper's counts (Folder). Call
// it once per tally, after the shard's last request.
func (f *Fleet) Fold(t *Tally) {
	f.set.Fold(t)
	for r, b := range f.byRoute {
		folded := false
		for _, prev := range f.byRoute[:r] {
			folded = folded || prev == b
		}
		if !folded {
			FoldInner(b, t)
		}
	}
}
