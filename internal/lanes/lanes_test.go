package lanes

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// numbers writes batch k as the lines "k.0\n" … "k.(size-1)\n", counting
// the batches Fill hands out; Fill fails with failErr at batch failAt.
type numbers struct {
	batches, size int
	failAt        int // -1: never
	failErr       error
	filled        int
}

func (nb *numbers) spec(lanes int) Spec[int] {
	return Spec[int]{
		Lanes:    lanes,
		BufBytes: 64,
		Fill: func(b *int) (bool, error) {
			if nb.filled == nb.failAt {
				return true, nb.failErr
			}
			if nb.filled == nb.batches {
				return false, nil
			}
			*b = nb.filled
			nb.filled++
			return true, nil
		},
		Format: func(dst []byte, b *int) []byte {
			for i := 0; i < nb.size; i++ {
				dst = strconv.AppendInt(dst, int64(*b), 10)
				dst = append(dst, '.')
				dst = strconv.AppendInt(dst, int64(i), 10)
				dst = append(dst, '\n')
			}
			return dst
		},
	}
}

// serial is what Write must produce: every batch's lines, in order.
func (nb *numbers) serial(batches int) []byte {
	var b []byte
	f := nb.spec(1).Format
	for k := 0; k < batches; k++ {
		b = f(b, &k)
	}
	return b
}

// failAfter accepts k bytes, then fails every write.
type failAfter struct {
	left   int
	err    error
	writes int // writes after the first failure
	failed bool
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.failed {
		w.writes++
		return 0, w.err
	}
	if len(p) > w.left {
		w.failed = true
		return w.left, w.err
	}
	w.left -= len(p)
	return len(p), nil
}

// settled waits for the goroutine count to come back to before and
// reports what it came to.
func settled(before int) int {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// TestWriteOrder: the bytes are the serial ones at every batch count
// around a round of lanes, whatever the lane count and GOMAXPROCS.
func TestWriteOrder(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, lanes := range []int{0, 1, 3, 4} {
			for _, batches := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 33} {
				nb := &numbers{batches: batches, size: 50, failAt: -1}
				var got bytes.Buffer
				if err := Write(&got, nb.spec(lanes)); err != nil {
					t.Fatal(err)
				}
				if want := nb.serial(batches); !bytes.Equal(got.Bytes(), want) {
					t.Errorf("GOMAXPROCS %d, %d lanes, %d batches: got %d bytes, want the %d serial ones",
						procs, lanes, batches, got.Len(), len(want))
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestWriteStopsOnWriteError: a failing writer stops the write. Write
// returns the writer's error, writes nothing more, fills at most two
// batches per lane past the one that failed, and leaves no goroutine
// behind. A writer that does not fail gets every byte.
func TestWriteStopsOnWriteError(t *testing.T) {
	const lanes, batches, size = 4, 40, 100
	errDisk := errors.New("disk full")
	batchBytes := len((&numbers{size: size}).serial(1)) // batch 0; every batch up to 9 has its length
	full := len((&numbers{size: size}).serial(batches))
	for _, k := range []int{0, batchBytes / 2, 5*batchBytes + 7, full - 1, full} {
		t.Run(fmt.Sprintf("after%d", k), func(t *testing.T) {
			before := runtime.NumGoroutine()
			nb := &numbers{batches: batches, size: size, failAt: -1}
			w := &failAfter{left: k, err: errDisk}
			err := Write(w, nb.spec(lanes))
			if k == full {
				if err != nil || w.failed {
					t.Fatalf("a writer taking all %d bytes: Write = %v", full, err)
				}
				return
			}
			if !errors.Is(err, errDisk) {
				t.Fatalf("Write = %v, want the writer's error", err)
			}
			if w.writes != 0 {
				t.Errorf("%d writes after the failure", w.writes)
			}
			// The byte-k write is batch failed's, counting from 0.
			failed := 0
			for end := len(nb.serial(1)); end <= k; end = len(nb.serial(failed + 1)) {
				failed++
			}
			if bound := failed + 2*lanes; nb.filled > bound {
				t.Errorf("batch %d failed and %d batches were filled, want at most %d", failed, nb.filled, bound)
			}
			if after := settled(before); after > before {
				t.Errorf("%d goroutines before, %d after", before, after)
			}
		})
	}
}

// TestWriteReturnsFillError: a Fill error ends the write with that error,
// after the batches filled before it are written.
func TestWriteReturnsFillError(t *testing.T) {
	errSource := errors.New("bad record")
	for _, failAt := range []int{0, 1, 5, 17} {
		before := runtime.NumGoroutine()
		nb := &numbers{batches: 40, size: 10, failAt: failAt, failErr: errSource}
		var got bytes.Buffer
		if err := Write(&got, nb.spec(3)); !errors.Is(err, errSource) {
			t.Fatalf("Fill failing at batch %d: Write = %v, want Fill's error", failAt, err)
		}
		if want := nb.serial(failAt); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("Fill failing at batch %d: wrote %d bytes, want the %d of the batches before it", failAt, got.Len(), len(want))
		}
		if after := settled(before); after > before {
			t.Errorf("Fill failing at batch %d: %d goroutines before, %d after", failAt, before, after)
		}
	}
}

// item is a batch of the read tests: its number, and whether a lane
// parsed it.
type item struct {
	k      int
	parsed bool
}

// counter fills batch k with k, up to batches, and checks that Fill is
// never handed the batch it filled last.
type counter struct {
	t       *testing.T
	batches int
	filled  int
	last    *item
}

func (c *counter) spec(lanes int) ReadSpec[item] {
	return ReadSpec[item]{
		Lanes: lanes,
		Fill: func(b *item) bool {
			if b == c.last {
				c.t.Errorf("Fill was handed batch %d, the one it filled last", b.k)
			}
			if c.filled == c.batches {
				return false
			}
			*b = item{k: c.filled}
			c.filled++
			c.last = b
			return true
		},
		Parse: func(b *item) { b.parsed = true },
	}
}

// TestReadOrder: Next returns every batch, parsed, in fill order, at every
// batch count around a round of lanes, whatever the lane count and
// GOMAXPROCS, and leaves no goroutine behind.
func TestReadOrder(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, lanes := range []int{0, 1, 3, 4} {
			for _, batches := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 33} {
				before := runtime.NumGoroutine()
				c := &counter{t: t, batches: batches}
				r := Read(c.spec(lanes))
				k := 0
				for b, ok := r.Next(); ok; b, ok = r.Next() {
					if b.k != k || !b.parsed {
						t.Errorf("GOMAXPROCS %d, %d lanes: batch %d is %+v", procs, lanes, k, *b)
					}
					k++
				}
				if k != batches {
					t.Errorf("GOMAXPROCS %d, %d lanes: %d of %d batches", procs, lanes, k, batches)
				}
				if after := settled(before); after > before {
					t.Errorf("GOMAXPROCS %d, %d lanes, %d batches: %d goroutines before, %d after", procs, lanes, batches, before, after)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestReadRestAndClose: Rest stops the read and returns, in order, every
// batch filled and not yet taken, and the batch taken last stays as it
// was; Close stops it too. Neither leaves a goroutine behind, and Next
// returns nothing after either.
func TestReadRestAndClose(t *testing.T) {
	const lanes, batches = 3, 40
	for _, taken := range []int{0, 1, 2, 5, 17, batches} {
		for _, rest := range []bool{true, false} {
			before := runtime.NumGoroutine()
			c := &counter{t: t, batches: batches}
			r := Read(c.spec(lanes))
			var held *item
			for range taken {
				held, _ = r.Next()
			}
			if rest {
				got := r.Rest()
				if taken+len(got) != c.filled {
					t.Errorf("%d taken: Rest returned %d batches of the %d filled", taken, len(got), c.filled)
				}
				for i, b := range got {
					if b.k != taken+i {
						t.Errorf("%d taken: Rest's batch %d is %d", taken, i, b.k)
					}
				}
			} else {
				r.Close()
			}
			if held != nil && held.k != taken-1 {
				t.Errorf("%d taken: the batch taken last is now %d", taken, held.k)
			}
			if _, ok := r.Next(); ok {
				t.Errorf("%d taken: Next returned a batch after the read stopped", taken)
			}
			if after := settled(before); after > before {
				t.Errorf("%d taken: %d goroutines before, %d after", taken, before, after)
			}
		}
	}
}
