package obs

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the powers-of-2 bucketing across the
// full uint64 range: empty files, single bytes, tiny transfers, 4 GB
// videos, and the largest representable value.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v   uint64
		pow int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1<<32 - 1, 32},      // just under 4 GB
		{1 << 32, 33},        // exactly 4 GB
		{1<<32 + 1, 33},      // just over 4 GB
		{math.MaxUint64, 64}, // largest observation
		{math.MaxUint64 / 2, 63},
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.pow {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.pow)
		}
		h := &Histogram{}
		h.Observe(c.v)
		snap := snapshotHistogram(h)
		if len(snap.Buckets) != 1 || snap.Buckets[0].Pow != c.pow || snap.Buckets[0].N != 1 {
			t.Errorf("Observe(%d): buckets = %+v, want one count in pow %d", c.v, snap.Buckets, c.pow)
		}
		if snap.Count != 1 || snap.Sum != c.v {
			t.Errorf("Observe(%d): count/sum = %d/%d", c.v, snap.Count, snap.Sum)
		}
	}
}

// Bucket pow p must hold exactly [2^(p-1), 2^p) for p >= 1: both edges of
// every power-of-2 boundary land where the contract says.
func TestHistogramBucketEdges(t *testing.T) {
	for p := 1; p < 64; p++ {
		lo := uint64(1) << (p - 1)
		hi := uint64(1)<<p - 1
		if BucketOf(lo) != p {
			t.Fatalf("low edge of pow %d misplaced: BucketOf(%d) = %d", p, lo, BucketOf(lo))
		}
		if BucketOf(hi) != p {
			t.Fatalf("high edge of pow %d misplaced: BucketOf(%d) = %d", p, hi, BucketOf(hi))
		}
	}
}

func TestHistogramCountSum(t *testing.T) {
	h := &Histogram{}
	var want uint64
	for _, v := range []uint64{0, 1, 4, 1 << 32, 1000} {
		h.Observe(v)
		want += v
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
}

// TestHistogramAddCounts: counts tallied in plain integers and added in
// one step leave the histogram exactly as observing each value would.
func TestHistogramAddCounts(t *testing.T) {
	vals := []uint64{0, 1, 4, 5, 1 << 32, 1000, 1000}
	observed, added := &Histogram{}, &Histogram{}
	var buckets [NumBuckets]uint64
	var sum uint64
	for _, v := range vals {
		observed.Observe(v)
		buckets[BucketOf(v)]++
		sum += v
	}
	added.Observe(7)
	observed.Observe(7)
	added.AddCounts(sum, &buckets)
	if a, b := snapshotHistogram(observed), snapshotHistogram(added); !reflect.DeepEqual(a, b) {
		t.Fatalf("AddCounts gives %+v, observing gives %+v", b, a)
	}
	var nilHist *Histogram
	nilHist.AddCounts(sum, &buckets) // no-op
}

// TestCountsMatchHistogram: observations split across two Counts, added
// together and joined by AddCounts, read as the same observations made on
// a Histogram.
func TestCountsMatchHistogram(t *testing.T) {
	vals := []uint64{0, 1, 4, 5, 1 << 32, 1000, 1000, math.MaxUint64 >> 1}
	observed, joined := &Histogram{}, &Histogram{}
	var a, b Counts
	for i, v := range vals {
		observed.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Add(&b)
	joined.AddCounts(a.Sum, &a.Buckets)
	if x, y := snapshotHistogram(observed), snapshotHistogram(joined); !reflect.DeepEqual(x, y) {
		t.Fatalf("Counts give %+v, observing gives %+v", y, x)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := &Histogram{} // scale 1: whole seconds
	h.ObserveDuration(90 * time.Second)
	if h.Sum() != 90 {
		t.Fatalf("seconds sum = %d, want 90", h.Sum())
	}
	h.ObserveDuration(-time.Second) // ignored
	if h.Count() != 1 {
		t.Fatalf("negative duration recorded")
	}

	hs := &Histogram{scale: 1e6} // microseconds, displayed as seconds
	hs.ObserveDuration(250 * time.Millisecond)
	if hs.Sum() != 250000 {
		t.Fatalf("scaled sum = %d, want 250000", hs.Sum())
	}
}

func TestHistogramNilNoops(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read as zero")
	}
}
