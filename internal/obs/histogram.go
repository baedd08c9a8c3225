package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the histogram's fixed bucket count: one bucket per
// possible bit length of a uint64 observation (0 through 64).
const NumBuckets = 65

// Histogram counts observations into powers-of-2 buckets: an observation
// v lands in bucket bits.Len64(v), so bucket 0 holds exactly 0, bucket 1
// holds exactly 1, and bucket p (p >= 1) holds [2^(p-1), 2^p). Sixty-five
// fixed buckets cover the full uint64 range — bytes from empty files to
// exabytes, delays from instant to eons — with no configuration and no
// per-observation allocation. The zero value is ready to use; Observe is
// safe for concurrent use and a no-op on a nil receiver.
//
// Scale is a display-only divisor applied by encoders and snapshots: a
// histogram observing microseconds with scale 1e6 is exposed in seconds.
// Observations themselves are always raw integers so that accumulation
// stays exact and merge-order independent.
type Histogram struct {
	scale   float64
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// scaleOr1 returns the display divisor, defaulting the zero value to 1.
func (h *Histogram) scaleOr1() float64 {
	if h.scale <= 0 {
		return 1
	}
	return h.scale
}

// BucketOf returns the bucket index an observation lands in.
func BucketOf(v uint64) int { return bits.Len64(v) }

// Observe records one observation in raw (unscaled) units.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration, converted to the histogram's
// display unit times its scale: with scale 1 the raw value is whole
// seconds, with scale 1e6 it is microseconds (exposed as seconds).
// Negative durations are ignored.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil || d < 0 {
		return
	}
	h.Observe(uint64(d.Seconds() * h.scaleOr1()))
}

// Count returns the total number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the raw (unscaled) sum of observations (0 on a nil
// receiver).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// merge folds o's observations into h. Both histograms must share a
// scale; Registry.Merge enforces that.
func (h *Histogram) merge(o *Histogram) {
	h.sum.Add(o.sum.Load())
	for i := range h.buckets {
		if n := o.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
}

// Counts is a histogram's observations in plain integers: one goroutine
// observes into it with no atomic, and AddCounts joins it to a Histogram
// in one step. The zero value is empty.
type Counts struct {
	Sum     uint64
	Buckets [NumBuckets]uint64
}

// Observe records one observation, as Histogram.Observe does.
func (c *Counts) Observe(v uint64) {
	c.Buckets[bits.Len64(v)]++
	c.Sum += v
}

// Add adds o's observations to c.
func (c *Counts) Add(o *Counts) {
	c.Sum += o.Sum
	for p, n := range o.Buckets {
		c.Buckets[p] += n
	}
}

// AddCounts folds observations tallied outside the histogram into it:
// buckets[p] observations landed in bucket p (BucketOf) and sum is their
// raw sum. It lets one goroutine accumulate in plain integers (Counts)
// and join a registry once, at the end, with no atomic per observation.
// Nil-safe.
func (h *Histogram) AddCounts(sum uint64, buckets *[NumBuckets]uint64) {
	if h == nil {
		return
	}
	h.sum.Add(sum)
	for p, n := range buckets {
		if n > 0 {
			h.buckets[p].Add(n)
		}
	}
}

// absorb folds a frozen snapshot's observations into h — merge for a
// histogram that crossed a process boundary as JSON. Bucket indices are
// validated (a corrupt snapshot must not index out of range); scale
// agreement is the caller's job, as in Merge.
func (h *Histogram) absorb(hs HistogramSnapshot) error {
	for _, b := range hs.Buckets {
		if b.Pow < 0 || b.Pow >= NumBuckets {
			return fmt.Errorf("obs: snapshot bucket pow %d out of range [0, %d)", b.Pow, NumBuckets)
		}
	}
	h.sum.Add(hs.Sum)
	for _, b := range hs.Buckets {
		h.buckets[b.Pow].Add(b.N)
	}
	return nil
}
