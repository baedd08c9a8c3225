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
// or a census taken in decoder order), the two numberings coincide.
// ResolveCensus skips that compare for records read from the very trace
// whose census seeded the population. A user's trace ordinal indexes a
// slice of the ordinals this population gave, checked against the user's
// ID. The maps stay as the fallback for an identity with no matching
// ordinal — a generated request, a population that is not the trace's
// census — and give the same ordinals the slice path would have; the user
// map is built the first time it is needed. User ordinals must come from
// one trace per population: two traces' users would alias.
//
// The seeded numbering never changes once built, so populations over one
// census share it (World): each holds only what its replay appends.
//
// Concurrency: Resolve is the replay engine's reader's, which calls it
// once per record before dispatching the record — it alone writes the
// tables then, and the dispatch send publishes the ordinals it hands out.
// Callers that fill a Request without ordinals (tests, bench probes)
// resolve through fileByID/userByID instead, which serialise on mu. The
// two modes do not mix on one population.
type Population struct {
	// mu serialises the ordinal-less callers and guards nothing else.
	mu   sync.Mutex
	seed *seeding
	// added numbers the files appended after seeding, from
	// len(seed.ids)+1 on; nil until the first one comes.
	added map[workload.FileID]Ordinal
	// userIDs is each user's ID, by ordinal index. byTrace is, by a
	// user's trace ordinal index, the ordinal this population gave the
	// user (0: not yet seen) beside its ID. users is the fallback map, nil
	// until a user without a matching trace ordinal comes; from then on
	// every user resolves through it.
	userIDs []int
	byTrace []traceUser
	users   map[int]Ordinal
	// userCap is how many user ordinals the per-user tables were sized for
	// (Reserve); wrappers built afterwards size their tables from it.
	userCap int
}

// seeding is a population's seeded files: their numbering, its ID index
// and their popularity bands. It is read-only once built.
type seeding struct {
	index map[workload.FileID]Ordinal
	// ids is each seeded file's ID, by ordinal index: what a decoded
	// file's trace ordinal is checked against.
	ids []workload.FileID
	// bands is each seeded file's popularity band, by index. A file
	// appended later is unknown to the replay's popularity database, which
	// reports unknown files as unpopular (core.StaticDB).
	bands []workload.PopularityBand
	// distinct reports files that named no ID twice: ordinal k+1 is then
	// files[k]'s, as a census's decoder numbers it.
	distinct bool
}

// newSeeding numbers files in order. A duplicated ID keeps its first
// ordinal and its last band, as core.NewStaticDB does.
func newSeeding(files []*workload.FileMeta) *seeding {
	s := &seeding{
		index: make(map[workload.FileID]Ordinal, len(files)),
		ids:   make([]workload.FileID, 0, len(files)),
		bands: make([]workload.PopularityBand, 0, len(files)),
	}
	for _, f := range files {
		o, ok := s.index[f.ID]
		if !ok {
			o = Ordinal(len(s.bands) + 1)
			s.index[f.ID] = o
			s.ids = append(s.ids, f.ID)
			s.bands = append(s.bands, 0)
		}
		s.bands[o.idx()] = f.Band()
	}
	s.distinct = len(s.ids) == len(files)
	return s
}

// NewPopulation seeds a population from files, in order. A duplicated ID
// keeps its first ordinal and its last band, as core.NewStaticDB does.
func NewPopulation(files []*workload.FileMeta) *Population {
	return &Population{seed: newSeeding(files)}
}

// Resolve returns the request's file and user ordinals, appending either
// if it is new. Reader only: see the type's concurrency note.
func (p *Population) Resolve(r workload.Request) (file, user Ordinal) {
	return p.File(r.File), p.user(r.User)
}

// ResolveCensus is Resolve for a record read from the bin trace whose
// census seeded the population (trace.Bin.Window beside
// trace.Bin.Census): the trace's table holds distinct file IDs, so a
// census ordinal is the file's population ordinal and is taken with no ID
// compare. A seeding that named an ID twice numbers files apart from the
// census, and resolves as Resolve does. Reader only.
func (p *Population) ResolveCensus(r workload.Request) (file, user Ordinal) {
	if k := r.File.Ord - 1; p.seed.distinct && k >= 0 && int(k) < len(p.seed.ids) {
		return Ordinal(r.File.Ord), p.user(r.User)
	}
	return p.Resolve(r)
}

// File is Resolve for a file alone, for an observation pass that
// dispatches nothing and so needs no user ordinals. Reader only.
func (p *Population) File(f *workload.FileMeta) Ordinal {
	if k := f.Ord - 1; k >= 0 && int(k) < len(p.seed.ids) && p.seed.ids[k] == f.ID {
		return Ordinal(f.Ord)
	}
	return p.byID(f.ID)
}

// byID is id's ordinal, the file appended if it is new.
func (p *Population) byID(id workload.FileID) Ordinal {
	if o, ok := p.seed.index[id]; ok {
		return o
	}
	o, ok := p.added[id]
	if !ok {
		if p.added == nil {
			p.added = make(map[workload.FileID]Ordinal)
		}
		o = Ordinal(p.numFiles() + 1)
		p.added[id] = o
	}
	return o
}

// numFiles is how many file ordinals have been handed out; seeded is how
// many of them are seeded.
func (p *Population) numFiles() int { return len(p.seed.ids) + len(p.added) }

func (p *Population) seeded() int { return len(p.seed.ids) }

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
	return p.numFiles() + n
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
	if i := o.idx(); i < int32(len(p.seed.bands)) {
		return p.seed.bands[i]
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
