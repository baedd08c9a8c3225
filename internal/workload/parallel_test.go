package workload

import (
	"io"
	"runtime"
	"testing"
	"time"
)

// TestRequestsWorkersMatchesSequential is the parallel generator's core
// guarantee: for any worker count and any chunk size the emitted sequence
// — indices, ordering, and every request field — is byte-identical to the
// sequential source.
func TestRequestsWorkersMatchesSequential(t *testing.T) {
	for _, chunk := range []int{256, 1024} {
		st, err := GenerateStream(streamCfg(), chunk)
		if err != nil {
			t.Fatal(err)
		}
		ref := collectAll(t, st.Requests())
		for _, workers := range []int{0, 1, 2, 3, 8, 64} {
			got := collectAll(t, st.RequestsWorkers(workers))
			if !requestsEqual(got, ref) {
				t.Fatalf("chunk=%d workers=%d: parallel stream diverged from sequential",
					chunk, workers)
			}
		}
	}
}

// TestRequestsWorkersSizer pins the Sizer extension on the parallel source.
func TestRequestsWorkersSizer(t *testing.T) {
	st, err := GenerateStream(streamCfg(), 512)
	if err != nil {
		t.Fatal(err)
	}
	src := st.RequestsWorkers(4)
	sz, ok := src.(Sizer)
	if !ok {
		t.Fatal("parallel source does not implement Sizer")
	}
	if got := sz.TotalRequests(); got != st.TotalRequests() {
		t.Fatalf("TotalRequests = %d, want %d", got, st.TotalRequests())
	}
	if n := len(collectAll(t, src)); n != st.TotalRequests() {
		t.Fatalf("stream yielded %d requests, want %d", n, st.TotalRequests())
	}
}

// TestRequestsWorkersRestartable: every call returns a fresh, independent
// stream over the same trace.
func TestRequestsWorkersRestartable(t *testing.T) {
	st, err := GenerateStream(streamCfg(), 512)
	if err != nil {
		t.Fatal(err)
	}
	a := collectAll(t, st.RequestsWorkers(3))
	b := collectAll(t, st.RequestsWorkers(5))
	if !requestsEqual(a, b) {
		t.Fatal("two parallel streams over the same StreamTrace disagree")
	}
}

// TestRequestsWorkersClose: abandoning a parallel stream mid-flight and
// closing it must stop the lanes without deadlock (run under -race to
// prove the shutdown is clean), and a closed source stays exhausted. A
// closed source and a fully drained one both leave no goroutine behind.
func TestRequestsWorkersClose(t *testing.T) {
	st, err := GenerateStream(streamCfg(), 128)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	src := st.RequestsWorkers(4)
	for i := 0; i < 100; i++ {
		if _, _, ok := src.Next(); !ok {
			t.Fatalf("stream ended after %d of %d requests", i, st.TotalRequests())
		}
	}
	c, ok := src.(io.Closer)
	if !ok {
		t.Fatal("parallel source does not implement io.Closer")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// A drained-or-closed source must keep reporting exhaustion cleanly.
	for i := 0; i < 3; i++ {
		if _, _, ok := src.Next(); ok && len(parBuf(src)) == 0 {
			t.Fatal("closed source yielded past its buffered bucket")
		}
	}
	if err := src.Err(); err != nil {
		t.Fatalf("closed source reports error %v", err)
	}
	if after := settled(before); after > before {
		t.Errorf("closed source: %d goroutines before, %d after", before, after)
	}
	if n := len(collectAll(t, st.RequestsWorkers(4))); n != st.TotalRequests() {
		t.Fatalf("stream yielded %d requests, want %d", n, st.TotalRequests())
	}
	if after := settled(before); after > before {
		t.Errorf("drained source: %d goroutines before, %d after", before, after)
	}
}

// parBuf exposes the residual buffer of a parallel source for the close
// test (requests already delivered to the consumer may drain).
func parBuf(src RequestSource) []genItem {
	if p, ok := src.(*parGenSource); ok {
		return p.items[p.pos:]
	}
	return nil
}

// settled waits for the goroutine count to come back to before and
// reports what it came to.
func settled(before int) int {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// BenchmarkGenerateStream measures end-to-end generation throughput —
// GenerateStream's two passes plus a full drain of the request stream —
// with the sequential source and with pipelined workers. On a single
// shared CPU the parallel path can only match the sequential one (the
// bucket handoff amortizes to one channel operation per ~chunk requests);
// the speedup manifests with real cores.
func BenchmarkGenerateStream(b *testing.B) {
	cfg := DefaultConfig(4000, 7)
	for _, workers := range []int{1, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			b.ReportAllocs()
			total := 0
			for i := 0; i < b.N; i++ {
				st, err := GenerateStream(cfg, DefaultStreamChunk)
				if err != nil {
					b.Fatal(err)
				}
				src := st.RequestsWorkers(workers)
				n := 0
				for {
					_, _, ok := src.Next()
					if !ok {
						break
					}
					n++
				}
				if n != st.TotalRequests() {
					b.Fatalf("drained %d of %d requests", n, st.TotalRequests())
				}
				total = n
			}
			b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

func benchName(key string, v int) string {
	return key + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
