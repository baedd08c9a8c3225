// Package lanes moves a stream of batches through several goroutines in
// order. Read is the one pipeline: one filling goroutine fills batches
// (blocks of a file, bucket numbers of a generated trace, say), lane
// goroutines parse them, and the caller takes them back in fill order.
// The CSV trace reader and the parallel generator run on it. Write is a
// Read whose caller writes: lanes format each batch into its slot's
// buffer and the caller writes those bytes in batch order, so filling
// the next batch overlaps both formatting and writing. The replay digest
// and the trace writers run on Write.
package lanes

import (
	"io"
	"sync"
)

// Spec describes one ordered write over batches of type B.
type Spec[B any] struct {
	// Lanes is the number of formatting goroutines; at least one runs.
	// Lane j formats batches j, j+Lanes, j+2·Lanes, … and owns two slots
	// (a batch and its buffer each), so it formats one batch while its
	// last is written.
	Lanes int
	// BufBytes is the starting capacity of each slot's buffer. A buffer
	// keeps whatever capacity Format grows it to.
	BufBytes int
	// NewBatch makes the storage of each slot's batch, once per slot
	// before anything is filled; nil leaves it at B's zero value.
	NewBatch func() B
	// Fill fills *b with the next batch and reports whether there is one.
	// It runs on the read's filling goroutine, not Write's caller, but on
	// one goroutine at a time and in batch order, so it may pull from a
	// single-consumer source. *b still holds a batch whose bytes have
	// been written, for its storage to be reused. An error ends the
	// write: the batch that Fill call filled is dropped, every batch
	// before it is still written, and Write returns the error.
	Fill func(b *B) (bool, error)
	// Format appends the bytes of batch *b to dst and returns the result.
	// It runs on a lane goroutine, concurrently with Fill and with the
	// other lanes.
	Format func(dst []byte, b *B) []byte
}

// slot is one batch and the buffer its bytes are formatted into.
type slot[B any] struct {
	batch B
	buf   []byte
}

// Write fills, formats and writes batches until Fill reports no more,
// writing each batch's bytes to w in the order Fill filled them. It is a
// Read over slots whose Parse is Format, and whose caller, Write, writes
// each slot's bytes as Next returns it, so memory is bounded by the lane
// count and not by the stream. The first write error stops the read;
// Write returns it, or else Fill's error, once every goroutine the read
// started has exited.
func Write[B any](w io.Writer, s Spec[B]) error {
	slots := make([]slot[B], 2*max(s.Lanes, 1))
	bufs := make([]byte, len(slots)*s.BufBytes)
	for i := range slots {
		slots[i].buf = bufs[i*s.BufBytes : i*s.BufBytes : (i+1)*s.BufBytes]
		if s.NewBatch != nil {
			slots[i].batch = s.NewBatch()
		}
	}
	var ferr error // Fill's; read once the read has ended
	r := read(slots, func(sl *slot[B]) bool {
		more, err := s.Fill(&sl.batch)
		ferr = err
		return more && err == nil
	}, func(_ int, sl *slot[B]) { sl.buf = s.Format(sl.buf[:0], &sl.batch) })
	for sl, ok := r.Next(); ok; sl, ok = r.Next() {
		if _, err := w.Write(sl.buf); err != nil {
			r.Close()
			return err
		}
	}
	return ferr
}

// ReadSpec describes one ordered read over batches of type B.
type ReadSpec[B any] struct {
	// Lanes is the number of parsing goroutines; at least one runs. Lane
	// j parses batches j, j+Lanes, j+2·Lanes, … and owns two slots, so it
	// parses one batch while the caller reads its last.
	Lanes int
	// NewBatch makes the storage of each slot's batch, once per slot
	// before anything is filled; nil leaves it at B's zero value.
	NewBatch func() B
	// Fill fills *b with the next batch and reports whether there is one.
	// It runs on one filling goroutine, in batch order. *b still holds a
	// batch the caller is done with, for its storage to be reused. The
	// batch Fill filled last is never that batch: batch m reuses the slot
	// of batch m−2·Lanes, which the caller gives back when it asks for
	// the batch after it. So Fill may read from the batch it filled
	// before (the start of a line that runs into the next batch, say),
	// though a lane may still be parsing that batch: Parse must not write
	// what Fill reads of it.
	Fill func(b *B) bool
	// Parse works on batch *b on lane goroutine lane, concurrently with
	// Fill and with the other lanes. A lane parses one batch at a time,
	// so Parse may keep scratch state of the lane's own.
	Parse func(lane int, b *B)
}

// Reader hands out the batches of one ordered read. Next, Rest and Close
// are for one goroutine at a time: a source pulled by Write's Fill has
// its Next called on the write's filling goroutine and its Close, later,
// on the caller's.
type Reader[B any] struct {
	slots   []B
	lanes   []lane
	stop    chan struct{}
	wg      sync.WaitGroup
	k       int // batches taken
	held    int // slot of the batch Next returned last; -1 for none
	stopped bool
}

// lane is one lane's channels. Slots move through them as indices: lane
// j's slots are 2j and 2j+1, and each channel holds at most those two, so
// no send ever blocks.
type lane struct {
	in   chan int // filled, to parse
	out  chan int // parsed (or, once stopped, skipped), to take
	free chan int // taken and given back, to fill again
}

// Read starts an ordered read: a filling goroutine fills batches and lane
// goroutines parse them while the caller takes them with Next. At most two
// slots per lane are in flight, so memory is bounded by the lane count and
// not by the stream. The goroutines run until Fill reports no more and
// Next has returned every batch, or until Rest or Close.
func Read[B any](s ReadSpec[B]) *Reader[B] {
	slots := make([]B, 2*max(s.Lanes, 1))
	if s.NewBatch != nil {
		for i := range slots {
			slots[i] = s.NewBatch()
		}
	}
	return read(slots, s.Fill, s.Parse)
}

// read starts Read's goroutines over slots, two per lane.
func read[B any](slots []B, fill func(*B) bool, parse func(int, *B)) *Reader[B] {
	r := &Reader[B]{slots: slots, lanes: make([]lane, len(slots)/2), stop: make(chan struct{}), held: -1}
	for j := range r.lanes {
		l := &r.lanes[j]
		l.in, l.out, l.free = make(chan int, 2), make(chan int, 2), make(chan int, 2)
		l.free <- 2 * j
		l.free <- 2*j + 1
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer close(l.out)
			for i := range l.in {
				select {
				case <-r.stop: // nothing more is parsed
				default:
					parse(j, &r.slots[i])
				}
				l.out <- i
			}
		}()
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() {
			for j := range r.lanes {
				close(r.lanes[j].in)
			}
		}()
		for k := 0; ; k++ {
			l := &r.lanes[k%len(r.lanes)]
			var i int
			select {
			case i = <-l.free:
			case <-r.stop:
				return
			}
			select {
			case <-r.stop: // stopped while waiting: the slot goes unfilled
				return
			default:
			}
			if !fill(&r.slots[i]) {
				return
			}
			l.in <- i
		}
	}()
	return r
}

// Next gives the batch it returned before back to Fill, then returns the
// next batch, parsed, in the order Fill filled them. It returns false once
// Fill has reported no more and every batch has been returned; by then
// every goroutine the read started has exited.
func (r *Reader[B]) Next() (*B, bool) {
	if r.stopped {
		return nil, false
	}
	if r.held >= 0 {
		r.lanes[(r.k-1)%len(r.lanes)].free <- r.held
		r.held = -1
	}
	i, ok := <-r.lanes[r.k%len(r.lanes)].out
	if !ok {
		r.Close()
		return nil, false
	}
	r.held = i
	r.k++
	return &r.slots[i], true
}

// Rest stops the read and returns, in fill order, every batch Fill filled
// that Next has not returned, parsed or not. It returns once every
// goroutine the read started has exited, so Fill's own state may be read
// after it. The batch Next returned last stays as it was; Next returns
// nothing more.
func (r *Reader[B]) Rest() []*B {
	r.Close()
	var rest []*B
	for k := r.k; ; k++ {
		i, ok := <-r.lanes[k%len(r.lanes)].out
		if !ok {
			return rest
		}
		rest = append(rest, &r.slots[i])
	}
}

// Close stops the read and returns once every goroutine it started has
// exited, after a Fill in progress returns. It is idempotent; Next
// returns nothing after it.
func (r *Reader[B]) Close() {
	if r.stopped {
		return
	}
	r.stopped = true
	close(r.stop)
	r.wg.Wait()
}
