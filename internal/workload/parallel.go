package workload

import (
	"runtime"

	"odr/internal/dist"
	"odr/internal/lanes"
)

// RequestsWorkers returns a stream over the trace's requests with the
// buckets built on `workers` lanes ahead of the consumer (lanes.Read). It
// is byte-identical to Requests() — indices, ordering and every field —
// for any worker count: Fill hands out bucket numbers in order, lane j
// builds buckets j, j+W, j+2W, … through the sequential source's
// buildBucket from the same per-request substreams (reqRoot.Split64 keyed
// by generation index), with RNGs and a sort spare of its own, and Next
// walks the buckets in order. At most two buckets per lane are in flight,
// so about 2 × workers × chunk requests are resident, whatever the trace
// length.
//
// workers <= 0 selects GOMAXPROCS; workers == 1 (or a single-bucket trace)
// returns the sequential source, which starts no goroutine. The source
// implements Sizer; one abandoned before exhaustion must be released with
// Close (a drained source stops on its own; Close is idempotent).
func (t *StreamTrace) RequestsWorkers(workers int) RequestSource {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	buckets := len(t.offsets) - 1
	if workers > buckets {
		workers = buckets
	}
	if workers <= 1 {
		return t.Requests()
	}
	// The sort spare stays with its lane: one per lane, not one per slot.
	type genLane struct {
		reqRoot, scratch *dist.RNG
		spare            []genItem
	}
	own := make([]genLane, workers)
	for j := range own {
		own[j] = genLane{dist.NewRNG(t.cfg.Seed).Split("requests"), dist.NewRNG(0), t.newBucketBuf()}
	}
	next := 0 // the bucket Fill hands out next
	return &parGenSource{t: t, rd: lanes.Read(lanes.ReadSpec[genBucket]{
		Lanes:    workers,
		NewBatch: func() genBucket { return genBucket{items: t.newBucketBuf()} },
		Fill: func(b *genBucket) bool {
			if next == buckets {
				return false
			}
			b.n, next = next, next+1
			return true
		},
		Parse: func(j int, b *genBucket) {
			l := &own[j]
			b.items, l.spare = t.buildBucket(b.items, l.spare, b.n, l.reqRoot, l.scratch)
		},
	})}
}

// genBucket is one bucket of the parallel stream: its number, and its
// requests once a lane has built them.
type genBucket struct {
	n     int
	items []genItem
}

// parGenSource is the parallel counterpart of genSource: it takes the
// buckets of a lanes.Read in bucket order and walks each.
type parGenSource struct {
	t     *StreamTrace
	rd    *lanes.Reader[genBucket]
	items []genItem // the bucket rd returned last
	pos   int
	base  int // global index of items[0]
}

// Next implements RequestSource; indices and requests are identical to the
// sequential source's.
func (s *parGenSource) Next() (int, Request, bool) {
	for s.pos >= len(s.items) {
		b, ok := s.rd.Next()
		if !ok {
			return 0, Request{}, false
		}
		s.base += len(s.items)
		s.items, s.pos = b.items, 0
	}
	i := s.base + s.pos
	req := s.items[s.pos].req
	s.pos++
	return i, req, true
}

// Err implements RequestSource; regeneration cannot fail.
func (s *parGenSource) Err() error { return nil }

// TotalRequests implements Sizer.
func (s *parGenSource) TotalRequests() int { return len(s.t.perm) }

// Close stops the lanes. It must be called when the stream is abandoned
// before exhaustion (a fully drained stream closes itself); it is
// idempotent and returns nil.
func (s *parGenSource) Close() error {
	s.rd.Close()
	return nil
}
