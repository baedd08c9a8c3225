package backend

import (
	"sync"
	"sync/atomic"

	"odr/internal/workload"
)

// Ordinal is a file's or a user's dense index in a replay's Population,
// stored plus one so that a Request's zero value reads as "unresolved".
type Ordinal int32

// idx is the zero-based table index.
func (o Ordinal) idx() int32 { return int32(o) - 1 }

// Population numbers one replay's files and users densely, so per-file and
// per-user state lives in tables indexed by ordinal rather than in maps
// keyed by the 16-byte FileID or the raw user ID. Files are seeded from
// the population the backends were built over, in order; files and users
// seen later are appended in first-seen order.
//
// A file or user decoded from a bin trace carries its first-appearance
// ordinal in the trace (workload.FileMeta.Ord, workload.User.Ord), and
// resolving it takes no map probe. A file's trace ordinal is checked with
// one slice read and a 16-byte ID compare against the seeded census: when
// the population was seeded from the trace's own census (trace.BinCensus,
// or a census taken in decoder order), the two numberings coincide. A
// user's trace ordinal indexes a slice of the ordinals this population
// gave, checked against the user's ID. The maps stay as the fallback for
// an identity with no matching ordinal — a generated request, a
// population that is not the trace's census — and give the same ordinals
// the slice path would have; the user map is built the first time it is
// needed. User ordinals must come from one trace per population: two
// traces' users would alias.
//
// Concurrency: Resolve is the replay engine's reader's, which calls it
// once per record before dispatching the record — it alone writes the
// tables then, and the dispatch send publishes the ordinals it hands out.
// Callers that fill a Request without ordinals (tests, bench probes)
// resolve through fileByID/userByID instead, which serialise on mu. The
// two modes do not mix on one population.
type Population struct {
	mu    sync.Mutex
	files map[workload.FileID]Ordinal
	// ids is each seeded file's ID, by ordinal index: what a decoded
	// file's trace ordinal is checked against.
	ids []workload.FileID
	// userIDs is each user's ID, by ordinal index. byTrace is, by a
	// user's trace ordinal index, the ordinal this population gave the
	// user (0: not yet seen) beside its ID. users is the fallback map, nil
	// until a user without a matching trace ordinal comes; from then on
	// every user resolves through it.
	userIDs []int
	byTrace []traceUser
	users   map[int]Ordinal
	// bands is each seeded file's popularity band, by index. A file
	// appended later is unknown to the replay's popularity database, which
	// reports unknown files as unpopular (core.StaticDB).
	bands []workload.PopularityBand
	// userCap is how many user ordinals the per-user tables were sized for
	// (Reserve); wrappers built afterwards size their tables from it.
	userCap int
}

// NewPopulation seeds a population from files, in order. A duplicated ID
// keeps its first ordinal and its last band, as core.NewStaticDB does.
func NewPopulation(files []*workload.FileMeta) *Population {
	p := &Population{
		files: make(map[workload.FileID]Ordinal, len(files)),
		ids:   make([]workload.FileID, 0, len(files)),
		bands: make([]workload.PopularityBand, 0, len(files)),
	}
	for _, f := range files {
		o, ok := p.files[f.ID]
		if !ok {
			o = Ordinal(len(p.bands) + 1)
			p.files[f.ID] = o
			p.ids = append(p.ids, f.ID)
			p.bands = append(p.bands, 0)
		}
		p.bands[o.idx()] = f.Band()
	}
	return p
}

// Resolve returns the request's file and user ordinals, appending either
// if it is new. Reader only: see the type's concurrency note.
func (p *Population) Resolve(r workload.Request) (file, user Ordinal) {
	return p.File(r.File), p.user(r.User)
}

// File is Resolve for a file alone, for an observation pass that
// dispatches nothing and so needs no user ordinals. Reader only.
func (p *Population) File(f *workload.FileMeta) Ordinal {
	if k := f.Ord - 1; k >= 0 && int(k) < len(p.ids) && p.ids[k] == f.ID {
		return Ordinal(f.Ord)
	}
	return p.byID(f.ID)
}

// byID is the file map's ordinal for id, appending the file if it is new.
func (p *Population) byID(id workload.FileID) Ordinal {
	o, ok := p.files[id]
	if !ok {
		o = Ordinal(len(p.files) + 1)
		p.files[id] = o
	}
	return o
}

// traceUser is what a population gave the user at one trace ordinal.
type traceUser struct {
	id int
	o  Ordinal
}

func (p *Population) user(u *workload.User) Ordinal {
	if k := int(u.Ord) - 1; k >= 0 && p.users == nil {
		if k >= len(p.byTrace) {
			p.byTrace = append(p.byTrace, make([]traceUser, k+1-len(p.byTrace))...)
		}
		t := &p.byTrace[k]
		if t.o == 0 {
			t.id, t.o = u.ID, p.addUser(u.ID)
			return t.o
		}
		if t.id == u.ID {
			return t.o
		}
	}
	if p.users == nil {
		p.users = make(map[int]Ordinal, len(p.userIDs))
		for k, id := range p.userIDs {
			p.users[id] = Ordinal(k + 1)
		}
	}
	o, ok := p.users[u.ID]
	if !ok {
		o = p.addUser(u.ID)
		p.users[u.ID] = o
	}
	return o
}

// addUser gives user id the next ordinal.
func (p *Population) addUser(id int) Ordinal {
	p.userIDs = append(p.userIDs, id)
	return Ordinal(len(p.userIDs))
}

// fileByID and userByID are Resolve's halves for ordinal-less callers.
func (p *Population) fileByID(f *workload.FileMeta) Ordinal {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.File(f)
}

// fileKey is the cloud pool's key for the file with id: its ordinal's
// table index, the file appended if it is new. It is the numbering a
// restored pool keys its files by (cloud.NewStoragePoolKeyed).
func (p *Population) fileKey(id workload.FileID) int32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.byID(id).idx()
}

func (p *Population) userByID(u *workload.User) Ordinal {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.user(u)
}

// reserve records that the replay about to run has n records, returning
// how many file ordinals those records can reach: every ordinal handed
// out so far plus one new file per record.
func (p *Population) reserve(n int) (files int) {
	p.userCap = len(p.userIDs) + n
	return len(p.files) + n
}

// numUsers is how many user ordinals have been handed out.
func (p *Population) numUsers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.userIDs)
}

// Band returns the file's popularity band as the replay's popularity
// database knows it: the seeded file's band, unpopular for a file
// appended after seeding.
func (p *Population) Band(o Ordinal) workload.PopularityBand {
	if i := o.idx(); i < int32(len(p.bands)) {
		return p.bands[i]
	}
	return workload.BandUnpopular
}

// pageShift sizes the pages of a per-ordinal table: 1024 slots.
const pageShift = 10

const pageLen = 1 << pageShift

// table is per-ordinal state in fixed-size pages behind a directory sized
// up front (reserve). A slot never moves once its page exists, so one
// goroutine can hand out slot pointers while another adds pages, and
// memory grows with the ordinals touched, not with the reservation. A page
// is allocated on first touch by whichever goroutine gets there first (a
// compare-and-swap on its directory entry); the directory itself must not
// grow while another goroutine reads it.
type table[T any] struct {
	dir []atomic.Pointer[[pageLen]T]
}

// reserve sizes the directory for n slots. It must not run concurrently
// with at: call it before the table is shared, or with every caller
// serialised.
func (t *table[T]) reserve(n int) {
	pages := (n + pageLen - 1) >> pageShift
	if pages <= len(t.dir) {
		return
	}
	dir := make([]atomic.Pointer[[pageLen]T], pages)
	for k := range t.dir {
		dir[k].Store(t.dir[k].Load())
	}
	t.dir = dir
}

// at returns slot i, allocating its page on first touch.
func (t *table[T]) at(i int32) *T {
	e := &t.dir[i>>pageShift]
	pg := e.Load()
	if pg == nil {
		pg = new([pageLen]T)
		if !e.CompareAndSwap(nil, pg) {
			pg = e.Load()
		}
	}
	return &pg[i&(pageLen-1)]
}

// peek returns slot i, or nil when its page was never touched.
func (t *table[T]) peek(i int) *T {
	if k := i >> pageShift; k < len(t.dir) {
		if pg := t.dir[k].Load(); pg != nil {
			return &pg[i&(pageLen-1)]
		}
	}
	return nil
}
