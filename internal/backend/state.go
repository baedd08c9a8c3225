package backend

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A cloud's observation state as AppendState writes it:
//
//	mode     u8: 's' static, 'd' dynamic
//	next     u64 little-endian: the lowest request index not yet observed
//	payload  static: a bitmap over the seeded file ordinals, bit o%8 of
//	         byte o/8 set when file o has been observed, padding bits zero;
//	         dynamic: the pool (cloud.StoragePool.AppendState)
const (
	stateStatic  = 's'
	stateDynamic = 'd'
)

// AppendState appends the cloud's observation state to dst: everything
// ObserveOrdinal has built that a later request's verdict reads. Per-file
// pre-download outcomes are not state — each is a pure function of (seed,
// file), rebuilt when a restored cloud first observes the file — and
// neither are the verdicts already latched, which only their own requests
// read. Call it from the observing goroutine, between observations.
//
// Static state names files by ordinal, so it fits only a cloud seeded with
// the same files in the same order, and only while every observed file was
// in that seed: an appended ordinal follows the order files first appear,
// which a restored cloud cannot know.
func (c *Cloud) AppendState(dst []byte) ([]byte, error) {
	seeded := len(c.pop.bands)
	if grown := len(c.pop.files) - seeded; grown > 0 && !c.dynamic {
		return nil, fmt.Errorf("backend: %d observed files are outside the %d the cloud was seeded with; static state cannot name them",
			grown, seeded)
	}
	dst = append(dst, c.stateMode())
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.observed.next))
	if c.dynamic {
		return c.pool.AppendState(dst), nil
	}
	bitmap := make([]byte, (seeded+7)/8)
	for o := range seeded {
		if s := c.slots.peek(o); s != nil && s.seen {
			bitmap[o/8] |= 1 << (o % 8)
		}
	}
	return append(dst, bitmap...), nil
}

// stateMode is the mode byte of the cloud's observation state.
func (c *Cloud) stateMode() byte {
	if c.dynamic {
		return stateDynamic
	}
	return stateStatic
}

// RestoreState loads an observation state AppendState wrote into a cloud
// that has observed nothing, built over the same files, configuration and
// seed, and sized (Set.Reserve) for the replay it is about to run. The
// state must be at request base; the cloud is then as if it had observed
// requests [0, base) itself, and the next request it observes must be
// base. A state no such cloud could have written is an error, never a
// later panic; after an error the cloud is unusable.
func (c *Cloud) RestoreState(b []byte, base int) error {
	switch {
	case len(b) == 0:
		return errors.New("backend: empty observation state")
	case len(b) < 9:
		return errors.New("backend: observation state truncated")
	}
	mode, next, b := b[0], binary.LittleEndian.Uint64(b[1:9]), b[9:]
	if mode != c.stateMode() {
		return fmt.Errorf("backend: observation state of mode %q does not fit a %s cloud", mode, c.PolicyLabel())
	}
	if base < 0 || next != uint64(base) {
		return fmt.Errorf("backend: observation state is at request %d, want %d", next, base)
	}
	c.observed.next = base
	if c.dynamic {
		return c.pool.RestoreState(b)
	}
	seeded := len(c.pop.bands)
	switch n := (seeded + 7) / 8; {
	case len(b) < n:
		return errors.New("backend: observation state truncated")
	case len(b) > n:
		return fmt.Errorf("backend: %d bytes after the observation state", len(b)-n)
	}
	if seeded%8 != 0 && b[len(b)-1]>>(seeded%8) != 0 {
		return fmt.Errorf("backend: static observation state marks files past the %d the cloud was seeded with", seeded)
	}
	c.slots.reserve(seeded)
	for o := range seeded {
		if b[o/8]&(1<<(o%8)) != 0 {
			c.slots.at(int32(o)).seen = true
		}
	}
	return nil
}
