// Package lanes moves a stream of batches through several goroutines in
// order, in either direction. Write writes batches to an io.Writer: the
// calling goroutine fills them one after another, lane goroutines turn
// them into bytes, and one writer goroutine writes those bytes in batch
// order, so pulling the next batch overlaps both formatting and writing.
// The replay digest and the trace writers share it. Read is its mirror
// for input: one reader goroutine fills batches (blocks of a file, say),
// lane goroutines parse them, and the caller takes them back in fill
// order; the CSV trace reader runs on it.
package lanes

import (
	"io"
	"sync"
)

// Spec describes one ordered write over batches of type B.
type Spec[B any] struct {
	// Lanes is the number of formatting goroutines; at least one runs.
	// Lane j formats batches j, j+Lanes, j+2·Lanes, … and owns two slots
	// (a batch and its buffer each), so it formats one batch while the
	// writer writes its last.
	Lanes int
	// BufBytes is the starting capacity of each slot's buffer. A buffer
	// keeps whatever capacity Format grows it to.
	BufBytes int
	// NewBatch makes the storage of each slot's batch, once per slot
	// before anything is filled; nil leaves it at B's zero value.
	NewBatch func() B
	// Fill fills *b with the next batch and reports whether there is one.
	// It runs on the calling goroutine only, in batch order, so it may
	// pull from a single-consumer source. *b still holds a batch whose
	// bytes have been written, for its storage to be reused. An error
	// ends the write: the batch that Fill call filled is dropped, every
	// batch before it is still written, and Write returns the error.
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
// writing each batch's bytes to w in the order Fill filled them. At most
// two slots per lane are in flight, so memory is bounded by the lane
// count and not by the stream. The first write error stops the filling
// and the formatting; Write returns it, or else Fill's error, once every
// goroutine it started has exited.
func Write[B any](w io.Writer, s Spec[B]) error {
	lanes := max(s.Lanes, 1)
	slots := make([]slot[B], 2*lanes)
	bufs := make([]byte, len(slots)*s.BufBytes)
	// Slots move as indices: lane j's slots are 2j and 2j+1, and each
	// channel holds at most those two, so no send below ever blocks.
	in := make([]chan int, lanes)   // filled, to format
	out := make([]chan int, lanes)  // formatted, to write
	free := make([]chan int, lanes) // written, to fill again
	stop := make(chan struct{})     // closed by the writer on a write error
	var wg sync.WaitGroup
	for j := range lanes {
		in[j], out[j], free[j] = make(chan int, 2), make(chan int, 2), make(chan int, 2)
		for i := 2 * j; i < 2*j+2; i++ {
			slots[i].buf = bufs[i*s.BufBytes : i*s.BufBytes : (i+1)*s.BufBytes]
			if s.NewBatch != nil {
				slots[i].batch = s.NewBatch()
			}
			free[j] <- i
		}
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			defer close(out[j])
			for i := range in[j] {
				select {
				case <-stop: // nothing more is written
					continue
				default:
				}
				slots[i].buf = s.Format(slots[i].buf[:0], &slots[i].batch)
				out[j] <- i
			}
		}(j)
	}

	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Batch k comes from lane k%lanes; the lane that would format the
		// batch after the last one closes its channel first.
		for k := 0; ; k++ {
			i, ok := <-out[k%lanes]
			if !ok {
				return
			}
			if _, werr = w.Write(slots[i].buf); werr != nil {
				close(stop)
				return
			}
			free[k%lanes] <- i
		}
	}()

	var ferr error
fill:
	for k := 0; ; k++ {
		var i int
		select {
		case i = <-free[k%lanes]:
		case <-stop:
			break fill
		}
		more, err := s.Fill(&slots[i].batch)
		if err != nil || !more {
			ferr = err
			break
		}
		in[k%lanes] <- i
	}
	for _, c := range in {
		close(c)
	}
	wg.Wait()
	if werr != nil {
		return werr
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
	// It runs on one reader goroutine, in batch order. *b still holds a
	// batch the caller is done with, for its storage to be reused. The
	// batch Fill filled last is never that batch: the caller gives a
	// batch back only once it holds the one after it, so Fill may read
	// from the batch it filled before (the start of a line that runs into
	// the next batch, say).
	Fill func(b *B) bool
	// Parse works on batch *b on a lane goroutine, concurrently with Fill
	// and with the other lanes.
	Parse func(b *B)
}

// Reader hands out the batches of one ordered read. Next, Rest and Close
// are for one goroutine, the caller's.
type Reader[B any] struct {
	slots   []B
	out     []chan int // parsed (or, once stopped, skipped), to take
	free    []chan int // taken and given back, to fill again
	stop    chan struct{}
	wg      sync.WaitGroup
	k       int // batches taken
	held    int // slot of the batch Next returned last; -1 for none
	stopped bool
}

// Read starts an ordered read: a reader goroutine fills batches and lane
// goroutines parse them while the caller takes them with Next. At most two
// slots per lane are in flight, so memory is bounded by the lane count and
// not by the stream. The goroutines run until Fill reports no more and
// Next has returned every batch, or until Rest or Close.
func Read[B any](s ReadSpec[B]) *Reader[B] {
	lanes := max(s.Lanes, 1)
	r := &Reader[B]{
		slots: make([]B, 2*lanes),
		out:   make([]chan int, lanes),
		free:  make([]chan int, lanes),
		stop:  make(chan struct{}),
		held:  -1,
	}
	// Slots move as indices: lane j's slots are 2j and 2j+1, and each
	// channel holds at most those two, so no send below ever blocks.
	in := make([]chan int, lanes) // filled, to parse
	for j := range lanes {
		in[j], r.out[j], r.free[j] = make(chan int, 2), make(chan int, 2), make(chan int, 2)
		for i := 2 * j; i < 2*j+2; i++ {
			if s.NewBatch != nil {
				r.slots[i] = s.NewBatch()
			}
			r.free[j] <- i
		}
		r.wg.Add(1)
		go func(j int) {
			defer r.wg.Done()
			defer close(r.out[j])
			for i := range in[j] {
				select {
				case <-r.stop: // nothing more is parsed
				default:
					s.Parse(&r.slots[i])
				}
				r.out[j] <- i
			}
		}(j)
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer func() {
			for _, c := range in {
				close(c)
			}
		}()
		for k := 0; ; k++ {
			var i int
			select {
			case i = <-r.free[k%lanes]:
			case <-r.stop:
				return
			}
			select {
			case <-r.stop: // stopped while waiting: the slot goes unfilled
				return
			default:
			}
			if !s.Fill(&r.slots[i]) {
				return
			}
			in[k%lanes] <- i
		}
	}()
	return r
}

// Next returns the next batch, parsed, in the order Fill filled them, and
// gives the batch it returned before back to Fill. It returns false once
// Fill has reported no more and every batch has been returned; by then
// every goroutine the read started has exited.
func (r *Reader[B]) Next() (*B, bool) {
	if r.stopped {
		return nil, false
	}
	lanes := len(r.out)
	i, ok := <-r.out[r.k%lanes]
	if r.held >= 0 {
		r.free[(r.k-1)%lanes] <- r.held
		r.held = -1
	}
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
		i, ok := <-r.out[k%len(r.out)]
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
