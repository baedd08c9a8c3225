package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator is one process with conns goroutines and as many
// keep-alive connections — never more than P. Request bodies are
// marshalled before any clock starts, so the generator's own work inside
// a timed call is a write, a read, and a status check.

// newLoadClient returns an HTTP client holding at most conns
// connections to the server.
func newLoadClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
		},
		Timeout: 30 * time.Second,
	}
}

// post sends one pre-marshalled body and returns the response body. Any
// transport error or non-200 answer is an error.
func post(ctx context.Context, c *http.Client, url string, body []byte, buf *bytes.Buffer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, buf.Bytes())
	}
	return nil
}

// openResult is what an open-loop phase observed.
type openResult struct {
	// latencies holds one entry per scheduled request, in schedule order,
	// measured from the instant the request was due — a stall delays the
	// requests behind it and every one of them counts the wait.
	latencies []time.Duration
	failed    int64
	// maxLate is the worst gap between a request's due time and the
	// moment the generator actually began sending it.
	maxLate time.Duration
	// achievedRate is requests completed over the time from the first
	// due instant to the last completion.
	achievedRate float64
	firstErr     error
}

// openLoop sends bodies (cycled) to url on a fixed schedule of rate
// requests per second for dur, regardless of how fast answers come back.
// The schedule is fixed before the first send: request i is due at
// start + i/rate.
func openLoop(ctx context.Context, c *http.Client, url string, bodies [][]byte,
	rate float64, dur time.Duration, conns int, tr *tracer, parent int) openResult {
	n := int(rate * dur.Seconds())
	if n < 1 {
		n = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	lat := make([]time.Duration, n)
	var next, failed atomic.Int64
	var mu sync.Mutex
	var res openResult
	var lastDone time.Time

	start := time.Now().Add(5 * time.Millisecond) // let every goroutine reach its first sleep
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var maxLate time.Duration
			var done time.Time
			var firstErr error
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					break
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				if late := sent.Sub(due); late > maxLate {
					maxLate = late
				}
				err := post(ctx, c, url, bodies[i%len(bodies)], &buf)
				done = time.Now()
				lat[i] = done.Sub(due)
				if err != nil {
					failed.Add(1)
					if firstErr == nil {
						firstErr = err
					}
				}
				tr.addInterval(parent, "odrweb.POST /api/v1/decide", done, done.Sub(sent), 1)
			}
			mu.Lock()
			if maxLate > res.maxLate {
				res.maxLate = maxLate
			}
			if done.After(lastDone) {
				lastDone = done
			}
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()

	sent := int(next.Load())
	if sent > n {
		sent = n
	}
	res.latencies = lat[:sent] // a cancelled run stops early; the unsent tail is dropped
	res.failed = failed.Load()
	if span := lastDone.Sub(start).Seconds(); span > 0 {
		res.achievedRate = float64(sent) / span
	}
	return res
}

// sliceQuantiles cuts latencies (in schedule order) into slices of per
// consecutive requests — one second of schedule each — sorts each
// slice's raw samples, and returns each slice's 50th and 90th percentile
// in ms. The run reports the median over slices: a half-second stall of
// a shared machine lands in one slice and moves neither median; a slower
// server moves every slice. A trailing slice under half full is dropped;
// fewer than per samples make one slice.
func sliceQuantiles(latencies []time.Duration, per int) (p50s, p90s []float64) {
	for lo := 0; lo < len(latencies); lo += per {
		hi := lo + per
		if hi > len(latencies) {
			hi = len(latencies)
			if lo > 0 && hi-lo < per/2 {
				break
			}
		}
		s := sortedCopy(durationsMS(latencies[lo:hi]))
		p50s = append(p50s, quantileSorted(s, 0.50))
		p90s = append(p90s, quantileSorted(s, 0.90))
	}
	return p50s, p90s
}

// closedResult is what a closed-loop phase observed.
type closedResult struct {
	calls    int64
	itemsOK  int64
	itemsBad int64
	wall     time.Duration
	// rates holds, per closedSlice-long slice of the phase, the
	// 200-status items completed in the slice per second. The run reports
	// the median: one stalled quarter second moves a mean and leaves a
	// median alone.
	rates    []float64
	firstErr error
}

// closedSlice is the width of the slices a closed loop's throughput is
// the median of.
const closedSlice = 250 * time.Millisecond

// okItem is how a 200 item reads in a batch response. Counting it is a
// byte scan; decoding every response in full would spend more of the two
// cores on the generator's JSON parser than on the server. Set-up decodes
// responses in full and checks them item by item.
var okItem = []byte(`"status":200`)

// closedLoop has callers goroutines each post a batch body, wait for the
// answer, and post the next, for dur. itemsPerCall is how many items
// every body carries.
func closedLoop(ctx context.Context, c *http.Client, url string, bodies [][]byte,
	itemsPerCall int, dur time.Duration, callers int, tr *tracer, parent int) closedResult {
	var next, ok, bad atomic.Int64
	var mu sync.Mutex
	var res closedResult
	// Whole slices only; a call that completes after the last whole slice
	// still counts towards the totals.
	perSlice := make([]atomic.Int64, int(dur/closedSlice))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				err := post(ctx, c, url, bodies[i%len(bodies)], &buf)
				done := time.Now()
				good := int64(0)
				if err == nil {
					good = int64(bytes.Count(buf.Bytes(), okItem))
				} else {
					mu.Lock()
					if res.firstErr == nil {
						res.firstErr = err
					}
					mu.Unlock()
				}
				if good > int64(itemsPerCall) {
					good = int64(itemsPerCall)
				}
				ok.Add(good)
				bad.Add(int64(itemsPerCall) - good)
				if s := int(done.Sub(start) / closedSlice); s < len(perSlice) {
					perSlice[s].Add(good)
				}
				tr.addInterval(parent, "odrweb.POST /api/v1/decide/batch", done, done.Sub(sent), int64(itemsPerCall))
			}
		}()
	}
	wg.Wait()
	res.calls = next.Load() // every call that took a number was sent and answered
	res.itemsOK = ok.Load()
	res.itemsBad = bad.Load()
	res.wall = time.Since(start)
	if len(perSlice) == 0 {
		res.rates = []float64{float64(res.itemsOK) / res.wall.Seconds()}
		return res
	}
	for i := range perSlice {
		res.rates = append(res.rates, float64(perSlice[i].Load())/closedSlice.Seconds())
	}
	return res
}
