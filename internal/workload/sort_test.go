package workload

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"time"

	"odr/internal/dist"
)

// TestSortBucketMatchesComparisonSort: the radix order is the (Time, j)
// order of a comparison sort, on buckets of 0, 1, 63, 64 and 65 items and
// a larger one, with times all equal, tied in a few values, sharing every
// byte but the lowest, spread over the week, and at the extremes of the
// Duration range.
func TestSortBucketMatchesComparisonSort(t *testing.T) {
	g := dist.NewRNG(17)
	times := map[string]func(i int) time.Duration{
		"one time":      func(int) time.Duration { return 3 * time.Hour },
		"ties":          func(int) time.Duration { return time.Duration(g.Intn(3)) * time.Millisecond },
		"low byte only": func(int) time.Duration { return 5<<40 + time.Duration(g.Intn(256)) },
		"week":          func(int) time.Duration { return time.Duration(g.Int63n(int64(7 * 24 * time.Hour))) },
		"largest": func(i int) time.Duration {
			return []time.Duration{math.MaxInt64, math.MaxInt64 - 1, 0, 1 << 56}[i%4]
		},
		"negative": func(int) time.Duration { return time.Duration(g.Int63n(1<<20) - 1<<19) },
	}
	for name, at := range times {
		for _, n := range []int{0, 1, 2, 63, 64, 65, 3000} {
			items := make([]genItem, n)
			for i := range items {
				items[i] = genItem{req: Request{Time: at(i)}, j: uint32(3*i + 1)}
			}
			want := slices.Clone(items)
			slices.SortFunc(want, func(a, b genItem) int {
				return cmp.Or(cmp.Compare(a.req.Time, b.req.Time), cmp.Compare(a.j, b.j))
			})
			got, spare := sortBucket(slices.Clone(items), make([]genItem, n))
			if !slices.Equal(got, want) {
				t.Errorf("%s, %d items: radix order differs from (Time, j)", name, n)
			}
			if n >= 2 && (cap(spare) < n || &spare[:n][0] == &got[0]) {
				t.Errorf("%s, %d items: the spare is the sorted buffer or too short for the bucket", name, n)
			}
		}
	}
}

// TestSampleArrivalMatchesChoice: the arrival drawn against totals summed
// once is the one Choice draws, on one RNG stream, over a cycled
// multi-week span and the default week.
func TestSampleArrivalMatchesChoice(t *testing.T) {
	long := DefaultConfig(100, 3)
	long.Span, long.CycleDays = 30*24*time.Hour, true
	for _, cfg := range []Config{DefaultConfig(100, 3), long} {
		cfg.dayWeights = cfg.resolvedDayWeights()
		cfg.dayTotal = dist.WeightTotal(cfg.dayWeights)
		a, b := dist.NewRNG(9), dist.NewRNG(9)
		for i := 0; i < 20000; i++ {
			day := b.Choice(cfg.dayWeights)
			hour := b.Choice(hourProfile[:])
			want := time.Duration(day)*24*time.Hour + time.Duration(hour)*time.Hour +
				time.Duration(b.Float64()*float64(time.Hour))
			if got := sampleArrival(cfg, a); got != want {
				t.Fatalf("span %v, draw %d: arrival %v, Choice's %v", cfg.Span, i, got, want)
			}
		}
	}
}

// TestStreamTimeThenIndexOrder: at chunk sizes 1, 7 and 8192 the stream
// runs in strictly increasing (Time, generation index), bucket after
// bucket, and Requests emits the buckets' requests.
func TestStreamTimeThenIndexOrder(t *testing.T) {
	for _, chunk := range []int{1, 7, 8192} {
		st, err := GenerateStream(DefaultConfig(300, 11), chunk)
		if err != nil {
			t.Fatal(err)
		}
		reqRoot, scratch := dist.NewRNG(st.cfg.Seed).Split("requests"), dist.NewRNG(0)
		buf, spare := st.newBucketBuf(), st.newBucketBuf()
		src := st.Requests()
		prev := genItem{req: Request{Time: -1}}
		n := 0
		for b := 0; b < len(st.offsets)-1; b++ {
			buf, spare = st.buildBucket(buf, spare, b, reqRoot, scratch)
			for _, it := range buf {
				if c := cmp.Or(cmp.Compare(prev.req.Time, it.req.Time), cmp.Compare(prev.j, it.j)); c >= 0 {
					t.Fatalf("chunk %d, bucket %d: (%v, %d) after (%v, %d)", chunk, b, it.req.Time, it.j, prev.req.Time, prev.j)
				}
				if _, req, ok := src.Next(); !ok || req != it.req {
					t.Fatalf("chunk %d: request %d is %+v, the bucket's %+v", chunk, n, req, it.req)
				}
				prev = it
				n++
			}
		}
		if n != st.TotalRequests() {
			t.Fatalf("chunk %d: %d requests in the buckets, want %d", chunk, n, st.TotalRequests())
		}
	}
}
