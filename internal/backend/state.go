package backend

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A cloud's observation state as AppendState writes it:
//
//	mode     u8: 'p' static, 'd' dynamic
//	next     u64 little-endian: the lowest request index not yet observed
//	payload  static: k, u64 little-endian — the files observed are exactly
//	         the seeded ordinals [0, k);
//	         dynamic: the pool (cloud.StoragePool.AppendState), naming
//	         each file by its ordinal's index, a seeded one on restore
//
// A static cloud seeded with a trace's files in first-appearance order (a
// census) has always observed such a prefix, so its state is one count.
// Mode 's' was an earlier static layout, a bitmap over the seeded files;
// World.RestoreSet refuses it by name rather than read its bytes as a count.
const (
	statePrefix  = 'p'
	stateDynamic = 'd'
	stateBitmap  = 's'
)

// AppendStaticState appends the observation state of a static cloud at
// request next that has observed exactly its first k seeded files. It is
// what AppendState writes for such a cloud, for a caller that knows k
// without observing: a census that records where each file first appears.
func AppendStaticState(dst []byte, next, k int) []byte {
	dst = append(dst, statePrefix)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(next))
	return binary.LittleEndian.AppendUint64(dst, uint64(k))
}

// AppendState appends the cloud's observation state to dst: everything
// ObserveOrdinal has built that a later request's verdict reads. Per-file
// pre-download outcomes are not state — each is a pure function of (seed,
// file), rebuilt when a restored cloud first observes the file — and
// neither are the verdicts already latched, which only their own requests
// read. Call it from the observing goroutine, between observations.
//
// Static state is a count of seeded files, so it fits only a cloud seeded
// with the same files in the same order, and only while the files observed
// are a prefix of that order: a static cloud whose observed files leave a
// gap, or reach past its seed, is refused, naming the gap.
func (c *Cloud) AppendState(dst []byte) ([]byte, error) {
	if c.w.dynamic {
		dst = append(dst, stateDynamic)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c.observed.next))
		return c.pool.AppendState(dst), nil
	}
	k, files := 0, c.pop.numFiles()
	for k < files && c.saw(k) {
		k++
	}
	for o := k + 1; o < files; o++ {
		if c.saw(o) {
			return nil, fmt.Errorf("backend: static state is not a prefix of the seeded files: file %d was observed but file %d was not (seed the cloud in first-appearance order)", o, k)
		}
	}
	if seeded := c.pop.seeded(); k > seeded {
		return nil, fmt.Errorf("backend: %d observed files are outside the %d the cloud was seeded with; static state cannot name them",
			k-seeded, seeded)
	}
	return AppendStaticState(dst, c.observed.next, k), nil
}

// restoreState loads an observation state AppendState wrote into a fresh
// cloud built over a world of the same files, configuration and seed —
// World.RestoreSet's, so it has observed nothing. The state must be at request base; the
// cloud is then as if it had observed requests [0, base) itself, and the
// next request it observes must be base. A state no such cloud could have
// written is an error, never a later panic; after an error the cloud is
// unusable.
func (c *Cloud) restoreState(b []byte, base int) error {
	switch {
	case len(b) == 0:
		return errors.New("backend: empty observation state")
	case len(b) < 9:
		return errors.New("backend: observation state truncated")
	}
	mode, next, b := b[0], binary.LittleEndian.Uint64(b[1:9]), b[9:]
	want := byte(statePrefix)
	if c.w.dynamic {
		want = stateDynamic
	}
	switch {
	case mode == stateBitmap:
		return errors.New("backend: observation state is in the retired static bitmap layout (mode 's'); rerun the pass that wrote it")
	case mode != want:
		return fmt.Errorf("backend: observation state of mode %q does not fit a %s cloud", mode, c.PolicyLabel())
	case base < 0 || next != uint64(base):
		return fmt.Errorf("backend: observation state is at request %d, want %d", next, base)
	}
	c.observed.next = base
	if c.w.dynamic {
		return c.pool.RestoreState(b, c.pop.seeded())
	}
	switch {
	case len(b) < 8:
		return errors.New("backend: observation state truncated")
	case len(b) > 8:
		return fmt.Errorf("backend: %d bytes after the observation state", len(b)-8)
	}
	k, seeded := binary.LittleEndian.Uint64(b), c.pop.seeded()
	if k > uint64(seeded) {
		return fmt.Errorf("backend: static observation state counts %d observed files, past the %d the cloud was seeded with", k, seeded)
	}
	// The seen bits of files [0, k): whole words, then the rest of one.
	c.seen = make([]uint64, (k+63)>>6, (seeded+63)>>6)
	for w := range c.seen {
		c.seen[w] = ^uint64(0)
	}
	if r := k & 63; r != 0 {
		c.seen[len(c.seen)-1] = 1<<r - 1
	}
	return nil
}
