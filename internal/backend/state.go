package backend

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Observation-state modes: the first byte of Cloud.AppendState's output.
const (
	stateStatic  = 's'
	stateDynamic = 'd'
)

// AppendState appends the cloud's observation state to dst: everything
// ObserveOrdinal has built that a later request reads. In static mode that
// is each observed file's first request index, by file ordinal; in dynamic
// mode the next request index and the pool, verbatim
// (cloud.StoragePool.AppendState). Per-file pre-download outcomes are not
// state — each is a pure function of (seed, file), rebuilt when a restored
// cloud first observes the file — and neither are the verdicts already
// latched, which only their own requests read. Call it from the observing
// goroutine, between observations.
//
// Static state names files by ordinal, so it fits only a cloud seeded with
// the same files in the same order, and only while every observed file was
// in that seed: an appended ordinal follows the order files first appear,
// which a restored cloud cannot know.
func (c *Cloud) AppendState(dst []byte) ([]byte, error) {
	if c.dyn != nil {
		dst = append(dst, stateDynamic)
		dst = binary.AppendUvarint(dst, uint64(c.dyn.next))
		return c.pool.AppendState(dst), nil
	}
	seeded := len(c.pop.bands)
	if grown := len(c.pop.files) - seeded; grown > 0 {
		return nil, fmt.Errorf("backend: %d observed files are outside the %d the cloud was seeded with; static state cannot name them",
			grown, seeded)
	}
	n := 0 // ordinals up to the last observed one
	for o := seeded; o > 0 && n == 0; o-- {
		if s := c.slots.peek(o - 1); s != nil && s.seen {
			n = o
		}
	}
	dst = append(dst, stateStatic)
	dst = binary.AppendUvarint(dst, uint64(n))
	for o := 0; o < n; o++ {
		var first uint64 // first request index + 1; 0 = not observed
		if s := c.slots.peek(o); s != nil && s.seen {
			first = uint64(s.first) + 1
		}
		dst = binary.AppendUvarint(dst, first)
	}
	return dst, nil
}

// RestoreState loads an observation state AppendState wrote into a cloud
// that has observed nothing, built over the same files, configuration and
// seed, and sized (Set.Reserve) for the replay it is about to run. The
// cloud is then as if it had observed requests [0, base) itself: the next
// request it observes must be base.
func (c *Cloud) RestoreState(b []byte, base int) error {
	if len(b) == 0 {
		return errors.New("backend: empty observation state")
	}
	mode := b[0]
	v, k := binary.Uvarint(b[1:])
	if k <= 0 {
		return errors.New("backend: observation state truncated")
	}
	b = b[1+k:]
	switch {
	case mode == stateDynamic && c.dyn != nil:
		if v != uint64(base) {
			return fmt.Errorf("backend: observation state is at request %d, want %d", v, base)
		}
		if err := c.pool.RestoreState(b); err != nil {
			return err
		}
		c.dyn.next = base
		return nil
	case mode == stateStatic && c.dyn == nil:
		if v > uint64(len(c.pop.bands)) {
			return fmt.Errorf("backend: observation state names %d files, the cloud was seeded with %d", v, len(c.pop.bands))
		}
		c.slots.reserve(int(v))
		for o := 0; o < int(v); o++ {
			first, k := binary.Uvarint(b)
			if k <= 0 {
				return errors.New("backend: observation state truncated")
			}
			b = b[k:]
			if first == 0 {
				continue
			}
			if first > uint64(base) {
				return fmt.Errorf("backend: observation state has file %d first seen at request %d, past the base %d", o, first-1, base)
			}
			s := c.slots.at(int32(o))
			s.seen, s.first = true, int(first-1)
		}
		if len(b) != 0 {
			return fmt.Errorf("backend: %d bytes after the observation state", len(b))
		}
		return nil
	}
	return fmt.Errorf("backend: observation state of mode %q does not fit a %s cloud", mode, c.PolicyLabel())
}
