// Package lanes writes a stream of batches to an io.Writer in order while
// formatting them on several goroutines. The calling goroutine fills the
// batches one after another, lane goroutines turn them into bytes, and
// one writer goroutine writes those bytes in batch order, so pulling the
// next batch overlaps both formatting and writing. The replay digest and
// the trace writers share it.
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
