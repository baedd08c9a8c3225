package workload

import (
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"odr/internal/dist"
)

// Config parameterizes the synthetic trace generator. The zero value is
// not usable; start from DefaultConfig and adjust NumFiles / Seed.
type Config struct {
	// NumFiles is the number of unique files in the trace. The paper's
	// week has 563,517; tests and benchmarks use scaled-down populations
	// (total requests ≈ 7.25 × NumFiles).
	NumFiles int
	// NumUsers is the number of distinct users. The paper's ratio is
	// roughly one user per 5.2 requests; if zero it is derived from
	// NumFiles using that ratio.
	NumUsers int
	// Seed drives all randomness.
	Seed uint64
	// Span is the trace duration; defaults to 7 days if zero.
	Span time.Duration

	// ClassShares are the request shares of video/software/document/image.
	ClassShares [4]float64
	// ProtocolShares are the shares of bittorrent/emule/http/ftp.
	ProtocolShares [4]float64
	// ISPShares are the user shares of telecom/unicom/mobile/cernet/other.
	ISPShares [5]float64
	// BWReportProb is the probability a user reports access bandwidth.
	BWReportProb float64
	// DayLoad scales the arrival rate of each trace day. The default
	// seven entries reproduce the Figure 11 growth toward the day-7 peak
	// that exceeds the cloud's 30 Gbps upload budget. A Span covering
	// more days than the table either cycles it (CycleDays) or fails
	// validation — days past the table are never silently unreachable.
	DayLoad []float64
	// CycleDays makes a Span longer than the DayLoad table legal by
	// repeating the table cyclically: day d carries weight
	// DayLoad[d % len(DayLoad)], so the default week-shaped table
	// becomes a weekly rhythm over any horizon. Load-pattern profiles
	// (ApplyProfile) instead materialize a full-length table.
	CycleDays bool

	// dayWeights is the normalized per-day arrival weight table covering
	// every day of the span, resolved once by normalize() so the
	// per-request sampling path never re-expands the cycle; dayTotal is
	// its dist.WeightTotal, summed once for the same reason.
	dayWeights []float64
	dayTotal   float64
}

// DefaultConfig returns the calibration matching §3 of the paper at the
// given file-population scale.
func DefaultConfig(numFiles int, seed uint64) Config {
	return Config{
		NumFiles:       numFiles,
		Seed:           seed,
		Span:           7 * 24 * time.Hour,
		ClassShares:    [4]float64{0.75, 0.15, 0.06, 0.04},
		ProtocolShares: [4]float64{0.68, 0.19, 0.10, 0.03},
		ISPShares:      [5]float64{0.40, 0.30, 0.15, 0.054, 0.096},
		BWReportProb:   0.8,
		DayLoad:        []float64{0.90, 0.93, 0.96, 0.99, 1.02, 1.06, 1.34},
	}
}

// spanOrDefault resolves the zero-value Span to the default week.
func (c *Config) spanOrDefault() time.Duration {
	if c.Span == 0 {
		return 7 * 24 * time.Hour
	}
	return c.Span
}

// spanDays is the number of whole days the resolved span covers.
func (c *Config) spanDays() int {
	return int(c.spanOrDefault() / (24 * time.Hour))
}

// resolvedDayWeights expands DayLoad to cover every day of the span: a
// table at least span-days long is used as-is (trailing entries beyond the
// span are ignored), a shorter one is cycled (Validate has already
// required CycleDays for that case).
func (c *Config) resolvedDayWeights() []float64 {
	days := c.spanDays()
	if days < 1 {
		return nil
	}
	if days <= len(c.DayLoad) {
		return c.DayLoad[:days]
	}
	w := make([]float64, days)
	for i := range w {
		w[i] = c.DayLoad[i%len(c.DayLoad)]
	}
	return w
}

// Validate reports whether the configuration is structurally sound.
func (c *Config) Validate() error {
	if c.NumFiles <= 0 {
		return fmt.Errorf("workload: NumFiles must be positive, got %d", c.NumFiles)
	}
	if c.Span < 0 {
		return fmt.Errorf("workload: negative Span %v", c.Span)
	}
	check := func(name string, shares []float64) error {
		var sum float64
		for _, s := range shares {
			if s < 0 {
				return fmt.Errorf("workload: negative %s share", name)
			}
			sum += s
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("workload: %s shares sum to %g, want 1", name, sum)
		}
		return nil
	}
	if err := check("class", c.ClassShares[:]); err != nil {
		return err
	}
	if err := check("protocol", c.ProtocolShares[:]); err != nil {
		return err
	}
	if err := check("ISP", c.ISPShares[:]); err != nil {
		return err
	}
	if days := c.spanDays(); days >= 1 {
		if len(c.DayLoad) == 0 {
			return fmt.Errorf("workload: DayLoad is empty but Span %v covers %d day(s)", c.spanOrDefault(), days)
		}
		if days > len(c.DayLoad) && !c.CycleDays {
			return fmt.Errorf("workload: Span %v covers %d days but DayLoad has %d entries; set CycleDays to repeat the table (or supply a full-length schedule) — days past the table must not be silently unreachable", c.spanOrDefault(), days, len(c.DayLoad))
		}
		used := len(c.DayLoad)
		if days < used {
			used = days
		}
		var sum float64
		for _, w := range c.DayLoad[:used] {
			if w < 0 {
				return fmt.Errorf("workload: negative DayLoad weight %g", w)
			}
			sum += w
		}
		if sum == 0 {
			return fmt.Errorf("workload: DayLoad weights for the %d-day span sum to zero", days)
		}
	}
	return nil
}

// accessBWKBps is the user access-bandwidth distribution in KB/s,
// calibrated so that ≈10.8 % of users sit below the 125 KBps (1 Mbps)
// HD-streaming threshold, with a median around 3 Mbps and a tail to
// 50 Mbps — consistent with the fetch-speed decomposition of §4.2.
var accessBWKBps = dist.MustEmpirical([]dist.Point{
	{V: 16, P: 0},
	{V: 125, P: 0.108},
	{V: 250, P: 0.30},
	{V: 400, P: 0.50},
	{V: 1250, P: 0.80},
	{V: 2500, P: 0.95},
	{V: 6250, P: 1.0},
})

// DefaultStreamChunk is the default target chunk size (in requests) of the
// streaming generator. Peak transient memory of a stream is roughly twice
// this many Requests (the diurnal peak-to-mean load ratio), independent of
// trace length.
const DefaultStreamChunk = 8192

// maxStreamBuckets bounds the time-bucket count of the streaming
// generator; bucket indices must fit in the uint16 scaffolding.
const maxStreamBuckets = 65535

// Generate synthesizes a complete trace from the configuration. It is the
// materialized form of GenerateStream: the emitted requests are collected
// into one slice, so memory grows with trace length. For large traces
// prefer GenerateStream and consume the request stream chunk by chunk.
func Generate(cfg Config) (*Trace, error) {
	st, err := GenerateStream(cfg, DefaultStreamChunk)
	if err != nil {
		return nil, err
	}
	requests, err := Collect(st.Requests())
	if err != nil {
		return nil, err
	}
	return &Trace{Files: st.Files, Users: st.Users, Requests: requests, Span: st.Span}, nil
}

// StreamTrace is a synthesized workload whose requests have not been
// materialized: the file and user populations are resident (they are what
// every consumer needs random access to), while the request log exists
// only as a re-streamable RequestSource. The per-request scaffolding kept
// here is a 4-byte counting-sorted permutation index — an order of
// magnitude smaller than materialized Requests — and each call to
// Requests regenerates request contents chunk by chunk from per-request
// RNG substreams.
type StreamTrace struct {
	Files []*FileMeta
	Users []*User
	// Span is the duration the trace covers.
	Span time.Duration

	cfg Config // normalized: Span and NumUsers resolved
	// cumReqs[i] is the total weekly requests of Files[0..i]; it maps a
	// generation index to its file by binary search.
	cumReqs []uint32
	// perm holds request generation indices grouped by time bucket
	// (ascending within each bucket); offsets[b] and offsets[b+1] bound
	// bucket b. Together they fix the emission order as (Time, generation
	// index) without holding any Request.
	perm    []uint32
	offsets []uint32
	// maxBucket is the largest bucket's request count: every bucket
	// buffer and sort scratch is made this long once.
	maxBucket int
}

// TotalRequests returns the number of requests the stream yields.
func (t *StreamTrace) TotalRequests() int { return len(t.perm) }

// GenerateStream synthesizes the trace's resident metadata and prepares a
// bounded-memory request stream. chunkSize is the target number of
// requests resident at once during emission (non-positive selects
// DefaultStreamChunk); the emitted request sequence is byte-identical for
// every chunk size and identical to Generate's request slice, because the
// emission order is defined as (request time, generation index) — a total
// order independent of how time is bucketed.
//
// The generator draws each request's content from its own RNG substream
// keyed by generation index (root("requests").Split64(j)), so a request
// can be regenerated in any pass without replaying a shared sequential
// stream. Construction makes one counting pass over those substreams, on
// GOMAXPROCS goroutines, to bucket requests by time; emission makes one
// more to fill each bucket.
func GenerateStream(cfg Config, chunkSize int) (*StreamTrace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Span == 0 {
		cfg.Span = 7 * 24 * time.Hour
	}
	if cfg.NumUsers == 0 {
		cfg.NumUsers = int(math.Max(1, float64(cfg.NumFiles)*7.25/5.2))
	}
	cfg.dayWeights = cfg.resolvedDayWeights()
	cfg.dayTotal = dist.WeightTotal(cfg.dayWeights)
	if chunkSize <= 0 {
		chunkSize = DefaultStreamChunk
	}
	root := dist.NewRNG(cfg.Seed)

	st := &StreamTrace{
		Files: generateFiles(cfg, root.Split("files")),
		Users: generateUsers(cfg, root.Split("users")),
		Span:  cfg.Span,
		cfg:   cfg,
	}

	st.cumReqs = make([]uint32, len(st.Files))
	total := uint64(0)
	for i, f := range st.Files {
		total += uint64(f.WeeklyRequests)
		if total > math.MaxUint32 {
			return nil, fmt.Errorf("workload: trace has %d+ requests, beyond the 2^32-1 streaming limit", total)
		}
		st.cumReqs[i] = uint32(total)
	}

	numBuckets := int(total) / chunkSize
	if int(total)%chunkSize != 0 {
		numBuckets++
	}
	if numBuckets < 1 {
		numBuckets = 1
	}
	if numBuckets > maxStreamBuckets {
		numBuckets = maxStreamBuckets
	}

	// Counting pass: assign every request to its time bucket. The bucket
	// bytes are transient; only the permutation index survives.
	buckets := make([]uint16, total)
	counts := countBuckets(cfg, len(st.Users), root.Split("requests"), buckets, numBuckets)

	// Counting sort (stable): perm groups generation indices by bucket,
	// ascending within each bucket.
	st.offsets = make([]uint32, numBuckets+1)
	for b := 0; b < numBuckets; b++ {
		st.offsets[b+1] = st.offsets[b] + counts[b]
		st.maxBucket = max(st.maxBucket, int(counts[b]))
	}
	next := make([]uint32, numBuckets)
	copy(next, st.offsets[:numBuckets])
	st.perm = make([]uint32, total)
	for j := range buckets {
		b := buckets[j]
		st.perm[next[b]] = uint32(j)
		next[b]++
	}
	return st, nil
}

// countBuckets fills buckets[j] with the time bucket of request j's
// arrival and returns how many requests fall in each bucket. Request j's
// arrival comes from its own substream (reqRoot.Split64 keyed by j), so
// the pass runs in any order: [0, len(buckets)) is split into GOMAXPROCS
// contiguous ranges, each counted on its own goroutine with its own
// scratch RNG and counts, and the counts are summed once all are done.
func countBuckets(cfg Config, numUsers int, reqRoot *dist.RNG, buckets []uint16, numBuckets int) []uint32 {
	workers := runtime.GOMAXPROCS(0)
	part := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := range part {
		part[w] = make([]uint32, numBuckets)
		lo, hi := len(buckets)*w/workers, len(buckets)*(w+1)/workers
		wg.Add(1)
		go func(counts []uint32) {
			defer wg.Done()
			scratch := dist.NewRNG(0)
			for j := lo; j < hi; j++ {
				reqRoot.Split64Into(scratch, uint64(j))
				_, at := drawRequest(cfg, scratch, numUsers)
				b := bucketOf(at, cfg.Span, numBuckets)
				buckets[j] = uint16(b)
				counts[b]++
			}
		}(part[w])
	}
	wg.Wait()
	counts := part[0]
	for _, p := range part[1:] {
		for b, c := range p {
			counts[b] += c
		}
	}
	return counts
}

// drawRequest draws request j's content from its dedicated substream. The
// draw order (user, then arrival) is part of the stream's definition:
// every pass over a request must consume its substream identically.
func drawRequest(cfg Config, g *dist.RNG, numUsers int) (userIdx int, at time.Duration) {
	userIdx = g.Intn(numUsers)
	at = sampleArrival(cfg, g)
	return userIdx, at
}

// bucketOf maps an arrival time to its bucket. The mapping is monotone in
// time, so concatenating buckets in order preserves time order for any
// bucket count.
func bucketOf(at, span time.Duration, numBuckets int) int {
	b := int(float64(at) / float64(span) * float64(numBuckets))
	if b < 0 {
		b = 0
	}
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// fileOfIndex returns the file owning generation index j.
func (t *StreamTrace) fileOfIndex(j uint32) *FileMeta {
	i := sort.Search(len(t.cumReqs), func(i int) bool { return t.cumReqs[i] > j })
	return t.Files[i]
}

// Requests returns a fresh stream over the trace's requests in time order
// (ties broken by generation index). The stream may be taken any number
// of times; each holds at most one time bucket (≈ the configured chunk
// size, ×2 at the diurnal peak) of materialized Requests.
func (t *StreamTrace) Requests() RequestSource {
	return &genSource{
		t:       t,
		reqRoot: dist.NewRNG(t.cfg.Seed).Split("requests"),
		scratch: dist.NewRNG(0),
		buf:     t.newBucketBuf(),
		spare:   t.newBucketBuf(),
	}
}

// genSource emits a StreamTrace bucket by bucket.
type genSource struct {
	t       *StreamTrace
	reqRoot *dist.RNG
	scratch *dist.RNG

	bucket int // next bucket to materialize
	buf    []genItem
	spare  []genItem // the sort's scratch
	pos    int
	base   int // global index of buf[0]
}

type genItem struct {
	req Request
	j   uint32
}

func (s *genSource) Next() (int, Request, bool) {
	for s.pos >= len(s.buf) {
		if s.bucket >= len(s.t.offsets)-1 {
			return 0, Request{}, false
		}
		s.loadBucket()
	}
	i := s.base + s.pos
	req := s.buf[s.pos].req
	s.pos++
	return i, req, true
}

func (s *genSource) Err() error { return nil }

// TotalRequests implements Sizer: the permutation index fixes the stream
// length before a single request is materialized.
func (s *genSource) TotalRequests() int { return len(s.t.perm) }

// loadBucket regenerates and time-sorts the next bucket's requests.
func (s *genSource) loadBucket() {
	s.base += len(s.buf)
	s.buf, s.spare = s.t.buildBucket(s.buf, s.spare, s.bucket, s.reqRoot, s.scratch)
	s.pos = 0
	s.bucket++
}

// newBucketBuf makes a bucket buffer that holds the largest bucket.
func (t *StreamTrace) newBucketBuf() []genItem {
	return make([]genItem, 0, t.maxBucket)
}

// buildBucket regenerates bucket b's requests into buf, reusing its
// storage: each request from its own substream (reqRoot.Split64 keyed by
// generation index, derived into scratch), then sorted by (Time,
// generation index) through spare (sortBucket). It returns the sorted
// bucket and the other buffer, the next spare; buf and spare must each
// hold t.maxBucket items. Both request sources build every bucket here.
func (t *StreamTrace) buildBucket(buf, spare []genItem, b int, reqRoot, scratch *dist.RNG) (sorted, nextSpare []genItem) {
	buf = buf[:0]
	for _, j := range t.perm[t.offsets[b]:t.offsets[b+1]] {
		reqRoot.Split64Into(scratch, uint64(j))
		userIdx, at := drawRequest(t.cfg, scratch, len(t.Users))
		buf = append(buf, genItem{
			req: Request{User: t.Users[userIdx], File: t.fileOfIndex(j), Time: at},
			j:   j,
		})
	}
	return sortBucket(buf, spare)
}

// sortBucket orders items by (Time, j), given that they arrive in
// ascending j, as every bucket's do: a stable sort on Time alone keeps
// equal times in j order. It is an LSD radix sort, one counting pass per
// byte of Time (sign bit flipped, so the bytes order as the values do),
// skipping a byte every item shares. Each pass moves the items between
// items and scratch, which must hold as many; the sorted items are in
// whichever the last pass wrote, returned with the other as the next
// scratch.
func sortBucket(items, scratch []genItem) (sorted, spare []genItem) {
	n := len(items)
	if n < 2 {
		return items, scratch
	}
	const flip = 1 << 63
	var counts [8][256]uint32
	for _, it := range items {
		k := uint64(it.req.Time) ^ flip
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	first := uint64(items[0].req.Time) ^ flip
	src, dst := items, scratch[:n]
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[byte(first>>shift)] == uint32(n) {
			continue // every item has this byte
		}
		var at uint32
		for v, cnt := range c {
			c[v] = at
			at += cnt
		}
		for _, it := range src {
			v := byte((uint64(it.req.Time) ^ flip) >> shift)
			dst[c[v]] = it
			c[v]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// maxWeeklyCount bounds the most popular file's count; it grows gently
// with population so small test traces remain well conditioned while the
// full-scale trace reaches tens of thousands, as in Figure 6.
func maxWeeklyCount(numFiles int) float64 {
	return math.Max(500, 0.09*float64(numFiles))
}

func generateFiles(cfg Config, g *dist.RNG) []*FileMeta {
	bands := newBandModel(maxWeeklyCount(cfg.NumFiles))
	files := make([]*FileMeta, cfg.NumFiles)
	for i := range files {
		f := &FileMeta{ID: FileIDFromIndex(uint64(i))}
		f.Class = FileClass(g.Choice(cfg.ClassShares[:]))
		f.Protocol = Protocol(g.Choice(cfg.ProtocolShares[:]))
		f.Size = sampleFileSize(g, f.Class)
		f.SourceURL = sourceURL(f.Protocol, f.ID)
		band := bands.sampleBand(g)
		f.WeeklyRequests = bands.sampleCount(g, band)
		files[i] = f
	}
	return files
}

// sampleFileSize draws a file size in bytes conditioned on class. The
// per-class components are calibrated so the aggregate matches Figure 5:
// min near 4 B, ≈25 % of files below 8 MB, median ≈115 MB, mean ≈390 MB,
// max 4 GB.
func sampleFileSize(g *dist.RNG, c FileClass) int64 {
	const (
		minSize = 4
		maxSize = 4 << 30 // 4 GB
	)
	var v float64
	switch c {
	case ClassVideo:
		if g.Bool(0.15) { // demo/preview videos
			v = g.LogUniform(1<<20, 8<<20)
		} else {
			v = g.LogNormal(19.45, 1.20)
		}
	case ClassSoftware:
		if g.Bool(0.5) { // small packages
			v = g.LogUniform(100<<10, 8<<20)
		} else {
			v = g.LogNormal(18.20, 1.30)
		}
	case ClassDocument:
		v = g.LogUniform(minSize, 20<<20)
	default: // ClassImage
		v = g.LogUniform(50<<10, 30<<20)
	}
	if v < minSize {
		v = minSize
	}
	if v > maxSize {
		v = maxSize
	}
	return int64(v)
}

// sourceURL formats a file's origin link in a single allocation: the hex
// ID is rendered into a stack buffer and the URL assembled in one pre-grown
// builder, so the per-file generation cost is the string itself rather
// than intermediate hex/concat temporaries.
func sourceURL(p Protocol, id FileID) string {
	var prefix, suffix string
	switch p {
	case ProtoBitTorrent:
		prefix = "magnet:?xt=urn:btih:"
	case ProtoEMule:
		prefix, suffix = "ed2k://|file|", "|"
	case ProtoFTP:
		prefix = "ftp://origin.example.net/"
	default:
		prefix = "http://origin.example.net/"
	}
	var hexBuf [2 * len(id)]byte
	hex.Encode(hexBuf[:], id[:])
	var b strings.Builder
	b.Grow(len(prefix) + len(hexBuf) + len(suffix))
	b.WriteString(prefix)
	b.Write(hexBuf[:])
	b.WriteString(suffix)
	return b.String()
}

func generateUsers(cfg Config, g *dist.RNG) []*User {
	users := make([]*User, cfg.NumUsers)
	for i := range users {
		users[i] = &User{
			ID:        i,
			ISP:       ISP(g.Choice(cfg.ISPShares[:])),
			AccessBW:  accessBWKBps.Sample(g) * 1024, // KB/s -> B/s
			ReportsBW: g.Bool(cfg.BWReportProb),
		}
	}
	return users
}

// sampleArrival draws a request time over the span: a day weighted by the
// resolved day-weight table, then a diurnal hour-of-day profile with an
// evening peak. The substream consumption (one Choice draw for the day
// regardless of table length, one Choice for the hour, one Float64 for
// the sub-hour offset) is part of the stream's definition: it keeps the
// per-request RNG byte-identical across horizons and chunk sizes.
func sampleArrival(cfg Config, g *dist.RNG) time.Duration {
	if len(cfg.dayWeights) == 0 {
		// Sub-day span: uniform over the span (no whole day to weight).
		return time.Duration(g.Float64() * float64(cfg.Span))
	}
	day := g.ChoiceTotal(cfg.dayWeights, cfg.dayTotal)
	hour := g.ChoiceTotal(hourProfile[:], hourTotal)
	frac := g.Float64()
	return time.Duration(day)*24*time.Hour +
		time.Duration(hour)*time.Hour +
		time.Duration(frac*float64(time.Hour))
}

// hourProfile is the relative request rate per hour of day, with a trough
// around 05:00 and an evening peak around 21:00 (typical for residential
// Chinese broadband usage).
// The long tail of multi-hour fetches smooths the instantaneous bandwidth
// burden, so the profile is moderately peaked (peak/mean ≈ 1.4, matching
// the Figure 11 peak-to-average ratio).
var hourProfile = [24]float64{
	0.62, 0.55, 0.50, 0.48, 0.46, 0.50, // 00-05
	0.62, 0.72, 0.82, 0.90, 0.96, 1.02, // 06-11
	1.05, 1.02, 1.00, 1.00, 1.02, 1.06, // 12-17
	1.12, 1.20, 1.32, 1.36, 1.12, 0.85, // 18-23
}

// hourTotal is hourProfile's dist.WeightTotal, summed once for every
// arrival's hour draw.
var hourTotal = dist.WeightTotal(hourProfile[:])

// DiurnalProfile returns the relative request rate per hour of day that the
// generator samples arrival times from. Consumers (e.g. predictive cache
// pre-warming) can locate the trough and peak of the daily cycle.
func DiurnalProfile() [24]float64 { return hourProfile }

// UnicomSample draws n requests issued by Unicom users whose clients
// report access bandwidth, mirroring the paper's §5.1 methodology for the
// smart-AP benchmarks (1000 sampled Unicom requests replayed on
// residential Unicom ADSL lines). It returns fewer than n only when the
// trace does not contain enough qualifying requests.
func UnicomSample(t *Trace, n int, seed uint64) []Request {
	sample, _ := UnicomSampleSource(NewSliceSource(t.Requests), n, seed) // a slice source never fails
	return sample
}

// PopularityVector returns weekly request counts ordered by decreasing
// rank (rank 1 first), as consumed by the Zipf/SE fitters.
func PopularityVector(files []*FileMeta) []float64 {
	v := make([]float64, len(files))
	for i, f := range files {
		v[i] = float64(f.WeeklyRequests)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(v)))
	return v
}
