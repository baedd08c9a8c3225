package workload

import (
	"fmt"

	"odr/internal/dist"
)

// RequestSource is a pull-based iterator over a request stream. Sources
// yield requests in global-index order — Next returns index 0, then 1, and
// so on — which is the contract the streaming replay engine's determinism
// rests on: a request's RNG substream is keyed by the index Next reports.
//
// A RequestSource is single-consumer and not safe for concurrent use. The
// whole point of the abstraction is bounded memory: implementations hold
// at most one chunk of requests at a time, so a million-user trace can
// flow through generation, trace I/O, and replay without ever being
// resident as a slice.
type RequestSource interface {
	// Next returns the next request and its global index. ok is false
	// when the stream is exhausted or failed; check Err to distinguish.
	Next() (int, Request, bool)
	// Err returns the error that terminated the stream, or nil after a
	// clean end.
	Err() error
}

// Sizer is an optional RequestSource extension for sources that know
// their total request count up front (an in-memory slice, the streaming
// generator's permutation index, a bin trace's trailer). The count is a
// contract, not a hint: the replay engine allocates its result slice at
// TotalRequests() and has shard workers write each task in place, so a
// source that yields more requests than it announced fails the replay
// (one that yields fewer just gets a shorter result). A source that
// cannot know its length (a non-seekable trace stream) simply does not
// implement Sizer, and the engine drains it into a slice before
// replaying. A wrapper that passes requests through one for one forwards
// its inner source's count, or 0 when the inner source is not a Sizer:
// a non-positive count reads as "unknown".
type Sizer interface {
	TotalRequests() int
}

// SliceSource adapts an in-memory request slice to the RequestSource
// interface, so every streaming consumer also accepts the classic slice
// APIs for free.
type SliceSource struct {
	reqs []Request
	pos  int
}

// NewSliceSource returns a source yielding reqs in order.
func NewSliceSource(reqs []Request) *SliceSource {
	return &SliceSource{reqs: reqs}
}

// TotalRequests implements Sizer.
func (s *SliceSource) TotalRequests() int { return len(s.reqs) }

// Next implements RequestSource.
func (s *SliceSource) Next() (int, Request, bool) {
	if s.pos >= len(s.reqs) {
		return 0, Request{}, false
	}
	i := s.pos
	s.pos++
	return i, s.reqs[i], true
}

// Err implements RequestSource; a slice never fails.
func (s *SliceSource) Err() error { return nil }

// Collect drains a source into a slice — the bridge back from the
// streaming world for callers that genuinely need random access. It is
// the one operation whose memory grows with trace length; prefer keeping
// the source if you only scan once. A source that breaks the index
// contract (indices count up from 0) is rejected rather than silently
// re-indexed.
func Collect(src RequestSource) ([]Request, error) {
	var out []Request
	for {
		i, req, ok := src.Next()
		if !ok {
			break
		}
		if i != len(out) {
			return nil, fmt.Errorf("workload: source yielded index %d, want %d", i, len(out))
		}
		out = append(out, req)
	}
	return out, src.Err()
}

// Census accumulates the distinct file and user populations seen on a
// request stream, in first-appearance order. Identity is pointer identity
// — streams produced by the generator or the trace readers intern users
// and files, so each population entry appears once. The populations are
// the resident metadata a streaming replay still needs (warm-cache
// construction, the popularity database), while the requests themselves
// flow through unretained.
type Census struct {
	files []*FileMeta
	users []*User
	seenF map[*FileMeta]bool
	seenU map[*User]bool
}

// NewCensus returns an empty census.
func NewCensus() *Census {
	return &Census{seenF: map[*FileMeta]bool{}, seenU: map[*User]bool{}}
}

// Observe records one request's identities.
func (c *Census) Observe(req Request) {
	if !c.seenF[req.File] {
		c.seenF[req.File] = true
		c.files = append(c.files, req.File)
	}
	if !c.seenU[req.User] {
		c.seenU[req.User] = true
		c.users = append(c.users, req.User)
	}
}

// Files returns the distinct files observed, in first-appearance order.
func (c *Census) Files() []*FileMeta { return c.files }

// Users returns the distinct users observed, in first-appearance order.
func (c *Census) Users() []*User { return c.users }

// Wrap returns a pass-through source that records every request it yields
// into the census, so population discovery costs no extra pass.
func (c *Census) Wrap(src RequestSource) RequestSource {
	return &censusSource{src: src, census: c}
}

type censusSource struct {
	src    RequestSource
	census *Census
}

func (s *censusSource) Next() (int, Request, bool) {
	i, req, ok := s.src.Next()
	if ok {
		s.census.Observe(req)
	}
	return i, req, ok
}

func (s *censusSource) Err() error { return s.src.Err() }

// UnicomSampleSource draws the §5.1 replay sample — n requests by Unicom
// users whose clients report access bandwidth — from a request stream, by
// a partial Fisher-Yates draw over the qualifying pool; it returns the
// pool itself when it holds no more than n requests. Only that pool is
// retained (a small fraction of the trace), so sampling a recorded
// million-user trace stays cheap. UnicomSample is this draw over a
// trace's slice.
func UnicomSampleSource(src RequestSource, n int, seed uint64) ([]Request, error) {
	var pool []Request
	for {
		_, req, ok := src.Next()
		if !ok {
			break
		}
		if req.User.ISP == ISPUnicom && req.User.ReportsBW {
			pool = append(pool, req)
		}
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	g := dist.NewRNG(seed).Split("unicom-sample")
	if len(pool) <= n {
		return pool, nil
	}
	for i := 0; i < n; i++ {
		j := i + g.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:n], nil
}
