package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"odr/internal/odrweb"
	"odr/internal/workload"
)

// serveIngestQueue is the per-worker ingest queue depth the server runs
// with: deep enough that P callers' batches (P × BatchItems items in
// flight) never meet a full queue, so no operation fails by design.
const serveIngestQueue = 1024

// serveRun is serve-decide: the built odrserver as its own process and
// this program as the load generator over P keep-alive connections.
// Phase A is an open loop — independent users each asking for one link —
// of single POST /api/v1/decide calls at a fixed rate, every call timed
// from the instant it was due. Phase B is a closed loop — an upstream
// aggregator that waits for its batch — of POST /api/v1/decide/batch
// calls from P callers. internal/odrweb, ingest, ratelimit and core do
// the work; replay, trace and distrib do nothing.
type serveRun struct {
	e      *env
	cmd    *exec.Cmd        // the built server, or
	local  *httptest.Server // the smoke test's in-process stand-in
	base   string
	client *http.Client

	digest  string   // sha256 over the verified decisions
	singles [][]byte // marshalled DecideRequest bodies
	batches [][]byte // marshalled BatchRequest bodies, BatchItems each
}

// serveChecked is how many items' decisions set-up verifies and hashes.
const serveChecked = 256

func (w *serveRun) setup(ctx context.Context) error {
	if err := w.boot(ctx); err != nil {
		return err
	}
	w.client = newLoadClient(w.e.P)
	items, err := decideItems(w.e.sc.ServeFiles, w.e.seed, w.e.sc.Singles+w.e.sc.Batches*w.e.sc.BatchItems)
	if err != nil {
		return err
	}
	if w.singles, w.batches, err = marshalBodies(items, w.e.sc.Singles, w.e.sc.BatchItems); err != nil {
		return err
	}
	if err := w.verify(ctx, items); err != nil {
		return err
	}
	// Warm-up: both endpoints, long enough for connections to open and
	// the server's pools to fill.
	openFor, closedFor := w.phases(w.e.sc.WarmupSeconds)
	a := openLoop(ctx, w.client, w.base+"/api/v1/decide", w.singles, w.e.sc.Rate, openFor, w.e.P, nil, 0)
	b := closedLoop(ctx, w.client, w.base+"/api/v1/decide/batch", w.batches, w.e.sc.BatchItems, closedFor, w.e.P, nil, 0)
	if a.failed != 0 || b.itemsBad != 0 {
		return fmt.Errorf("serve-decide: warm-up saw failures (single: %d, %v; batch items: %d, %v)",
			a.failed, a.firstErr, b.itemsBad, b.firstErr)
	}
	return nil
}

// boot starts the server and waits until it answers /healthz.
func (w *serveRun) boot(ctx context.Context) error {
	if w.e.binDir == "" {
		srv, err := newInProcessServer(w.e.sc.ServeFiles, w.e.seed, w.e.P)
		if err != nil {
			return err
		}
		w.local = httptest.NewServer(srv)
		w.base = w.local.URL
		return nil
	}
	addrFile := filepath.Join(w.e.dir, "server.addr")
	os.Remove(addrFile)
	w.cmd = command(ctx, w.e.P, filepath.Join(w.e.binDir, "odrserver"),
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-files", strconv.Itoa(w.e.sc.ServeFiles),
		"-seed", strconv.FormatUint(w.e.seed, 10),
		"-ingest-workers", strconv.Itoa(w.e.P),
		"-ingest-queue", strconv.Itoa(serveIngestQueue))
	if err := w.cmd.Start(); err != nil {
		return err
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if raw, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(raw, []byte("\n")) {
			w.base = "http://" + strings.TrimSpace(string(raw))
			resp, err := http.Get(w.base + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("serve-decide: odrserver did not come up within 60s")
}

func (w *serveRun) teardown() {
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.client = nil
	}
	if w.local != nil {
		w.local.Close()
		w.local = nil
	}
	if w.cmd != nil {
		_ = w.cmd.Cancel() // kills the server's process group
		_ = w.cmd.Wait()   // the kill is the expected way out; its error says nothing
		w.cmd = nil
	}
}

// serverUsage reads the CPU and peak memory of the process under test.
func (w *serveRun) serverUsage() (rusage, error) {
	if w.cmd == nil {
		return selfUsage(), nil
	}
	return procUsage(w.cmd.Process.Pid)
}

// decideItems draws n (link, user, aux) triples from the head of the
// trace generated for (files, seed) — the very universe odrserver
// synthesizes for the same two numbers, so every link resolves to a
// known file rather than to the unknown-link fallback.
func decideItems(files int, seed uint64, n int) ([]odrweb.BatchItem, error) {
	st, err := workload.GenerateStream(workload.DefaultConfig(files, seed), workload.DefaultStreamChunk)
	if err != nil {
		return nil, err
	}
	src := st.Requests()
	items := make([]odrweb.BatchItem, 0, n)
	for len(items) < n {
		_, req, ok := src.Next()
		if !ok {
			break
		}
		items = append(items, odrweb.BatchItem{
			Link: req.File.SourceURL,
			User: "u" + strconv.Itoa(req.User.ID),
			Aux:  auxFor(req.User),
		})
	}
	if len(items) < n {
		return nil, fmt.Errorf("trace of %d files holds %d requests, need %d", files, len(items), n)
	}
	return items, nil
}

// auxFor maps a trace user onto the decide API's auxiliary info the way
// cmd/odrload does: even user IDs own a capable AP, odd ones none.
func auxFor(u *workload.User) *odrweb.AuxInfo {
	bw := u.AccessBW
	if bw <= 0 {
		bw = 1 << 20
	}
	aux := &odrweb.AuxInfo{ISP: u.ISP.String(), AccessBW: bw}
	if u.ID%2 == 0 {
		aux.HasAP = true
		aux.APStorage = "sata-hdd"
		aux.APFS = "ext4"
		aux.APCPUGHz = 1.2
	}
	return aux
}

// marshalBodies fixes the request bodies before any clock starts: the
// first singles items one per single-decide body, the rest in batch
// bodies of batchItems each.
func marshalBodies(items []odrweb.BatchItem, singles, batchItems int) (single, batch [][]byte, err error) {
	for _, it := range items[:singles] {
		raw, err := json.Marshal(odrweb.DecideRequest{Link: it.Link, Aux: it.Aux})
		if err != nil {
			return nil, nil, err
		}
		single = append(single, raw)
	}
	for rest := items[singles:]; len(rest) >= batchItems; rest = rest[batchItems:] {
		raw, err := json.Marshal(odrweb.BatchRequest{Items: rest[:batchItems]})
		if err != nil {
			return nil, nil, err
		}
		batch = append(batch, raw)
	}
	return single, batch, nil
}

// verify is the correctness check: the first serveChecked items are
// decided one by one and again as one batch; every answer must be a 200
// carrying a route, the two endpoints must agree item for item, and the
// decisions hash to the pinned value when the inputs are the pinned ones.
func (w *serveRun) verify(ctx context.Context, items []odrweb.BatchItem) error {
	n := serveChecked
	if n > w.e.sc.BatchItems {
		n = w.e.sc.BatchItems
	}
	checked := items[:n]
	var buf bytes.Buffer
	var all strings.Builder
	singles := make([]odrweb.DecideResponse, n)
	for i := range checked {
		if err := post(ctx, w.client, w.base+"/api/v1/decide", w.singles[i], &buf); err != nil {
			return fmt.Errorf("serve-decide: verify item %d: %w", i, err)
		}
		if err := json.Unmarshal(buf.Bytes(), &singles[i]); err != nil {
			return fmt.Errorf("serve-decide: verify item %d: %w", i, err)
		}
		d := singles[i]
		if d.Route == "" || d.Backend == "" {
			return fmt.Errorf("serve-decide: item %d answered without a route: %s", i, buf.Bytes())
		}
		fmt.Fprintf(&all, "%s|%s|%s|%s|%s|%v\n", d.Route, d.Backend, d.Source, d.Reason, d.Band, d.Cached)
	}
	raw, err := json.Marshal(odrweb.BatchRequest{Items: checked})
	if err != nil {
		return err
	}
	if err := post(ctx, w.client, w.base+"/api/v1/decide/batch", raw, &buf); err != nil {
		return fmt.Errorf("serve-decide: verify batch: %w", err)
	}
	var br odrweb.BatchResponse
	if err := json.Unmarshal(buf.Bytes(), &br); err != nil {
		return fmt.Errorf("serve-decide: verify batch: %w", err)
	}
	if len(br.Results) != n {
		return fmt.Errorf("serve-decide: batch of %d items answered %d results", n, len(br.Results))
	}
	for i, r := range br.Results {
		if r.Status != http.StatusOK || r.Decision == nil {
			return fmt.Errorf("serve-decide: batch item %d: status %d %s", i, r.Status, r.Error)
		}
		if d, s := *r.Decision, singles[i]; d.Route != s.Route || d.Backend != s.Backend ||
			d.Source != s.Source || d.Reason != s.Reason || d.Band != s.Band || d.Cached != s.Cached {
			return fmt.Errorf("serve-decide: item %d: batch answered %+v, single answered %+v", i, d, s)
		}
	}
	w.digest = sha256Hex(all.String())
	return w.e.checkPin("serve-decide", w.digest)
}

// openAttempts is how often a run tries its open loop before giving up.
const openAttempts = 3

// holdsSchedule reports whether an open loop offered the load it says.
func (w *serveRun) holdsSchedule(a openResult) bool {
	return a.achievedRate >= w.e.sc.MinRateShare*w.e.sc.Rate
}

func (w *serveRun) measure(ctx context.Context, seconds float64) (*measurement, error) {
	openFor, closedFor := w.phases(seconds)
	// An open loop that could not hold its schedule — the machine stalled
	// the generator, or a backlog grew — measured something else than it
	// says. Its samples are thrown away whole and the phase runs again;
	// a run that never holds the schedule fails instead of reporting.
	var a openResult
	var discarded []string
	for attempt := 1; ; attempt++ {
		a = openLoop(ctx, w.client, w.base+"/api/v1/decide", w.singles, w.e.sc.Rate, openFor, w.e.P, nil, 0)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if w.holdsSchedule(a) {
			break
		}
		why := fmt.Sprintf("open loop attempt %d discarded: achieved %.1f req/s of %.0f scheduled, generator up to %.1f ms late",
			attempt, a.achievedRate, w.e.sc.Rate, ms(a.maxLate))
		if attempt == openAttempts {
			return nil, fmt.Errorf("serve-decide: %s; %d attempts, none held the schedule", why, attempt)
		}
		discarded = append(discarded, why)
	}

	// CPU is read over the closed loop alone: every item there costs the
	// server the same work, so seconds per million items compare. A
	// single decide at a third of capacity is mostly wake-ups, and its
	// CPU swings by a quarter between runs of the same code.
	before, err := w.serverUsage()
	if err != nil {
		return nil, err
	}
	b := closedLoop(ctx, w.client, w.base+"/api/v1/decide/batch", w.batches, w.e.sc.BatchItems, closedFor, w.e.P, nil, 0)
	after, err := w.serverUsage()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := w.shape(a, b)
	m.cpuSeconds = after.cpuSeconds - before.cpuSeconds
	m.cpuItems = b.itemsOK + b.itemsBad
	m.peakRSSMB = after.peakRSSMB
	m.notes = append(m.notes, discarded...)
	return m, nil
}

// shape turns the two phases into a measurement, CPU and memory aside.
func (w *serveRun) shape(a openResult, b closedResult) *measurement {
	m := &measurement{
		attempted:   int64(len(a.latencies)) + b.itemsOK + b.itemsBad,
		failed:      a.failed + b.itemsBad,
		waitSamples: len(a.latencies),
		rates:       b.rates,
	}
	m.p50s, m.p90s = sliceQuantiles(a.latencies, int(w.e.sc.Rate))
	all := sortedCopy(durationsMS(a.latencies))
	m.layer = map[string]float64{
		"loadgen.samples":        float64(len(all)),
		"loadgen.max_late_ms":    ms(a.maxLate),
		"loadgen.single_p99_ms":  quantileSorted(all, 0.99),
		"loadgen.single_p999_ms": quantileSorted(all, 0.999),
		"loadgen.achieved_rate":  a.achievedRate,
	}
	m.notes = append(m.notes,
		fmt.Sprintf("open loop: %d single decides scheduled at %.0f/s over %d connections, achieved %.1f/s, generator at most %.3f ms late",
			len(all), w.e.sc.Rate, w.e.P, a.achievedRate, ms(a.maxLate)),
		fmt.Sprintf("wait = single-decide latency from its due time: median over one-second slices of each slice's p50 and p90 (raw samples, sorted); over this round's samples p50 %.3f ms, p90 %.3f ms",
			quantileSorted(all, 0.50), quantileSorted(all, 0.90)),
		fmt.Sprintf("open loop tail over all samples (not gated): p99 %.3f ms, p99.9 %.3f ms",
			m.layer["loadgen.single_p99_ms"], m.layer["loadgen.single_p999_ms"]),
		fmt.Sprintf("closed loop: %d callers, %d calls of %d items in %.2fs (%.0f items/s overall); records_per_s = median over slices of %v of the 200-status items per second",
			w.e.P, b.calls, w.e.sc.BatchItems, b.wall.Seconds(), float64(b.itemsOK)/b.wall.Seconds(), closedSlice),
		"cpu_s_per_mrec = server CPU over the closed loop per million batch items",
		fmt.Sprintf("output digest %s (the decisions set-up verified on both endpoints)", w.digest))
	if a.firstErr != nil {
		m.notes = append(m.notes, fmt.Sprintf("first single-decide error: %v", a.firstErr))
	}
	if b.firstErr != nil {
		m.notes = append(m.notes, fmt.Sprintf("first batch error: %v", b.firstErr))
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traced runs a short pair of phases, one span per HTTP call, and
// returns the single-decide median as the cost tracing may inflate.
func (w *serveRun) traced(ctx context.Context, tr *tracer, parent int) (float64, map[string]float64, error) {
	openFor, closedFor := w.phases(w.e.sc.TracedSeconds)
	sp := tr.start(parent, "odrweb.open-loop")
	a := openLoop(ctx, w.client, w.base+"/api/v1/decide", w.singles, w.e.sc.Rate, openFor, w.e.P, tr, sp)
	tr.end(sp, int64(len(a.latencies)))
	sp = tr.start(parent, "odrweb.closed-loop")
	b := closedLoop(ctx, w.client, w.base+"/api/v1/decide/batch", w.batches, w.e.sc.BatchItems, closedFor, w.e.P, tr, sp)
	tr.end(sp, b.itemsOK)
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	if a.failed != 0 || b.itemsBad != 0 {
		return 0, nil, fmt.Errorf("serve-decide: traced phases saw failures (single: %d, %v; batch items: %d, %v)",
			a.failed, a.firstErr, b.itemsBad, b.firstErr)
	}
	if !w.holdsSchedule(a) {
		return 0, nil, fmt.Errorf("serve-decide: traced open loop achieved %.1f req/s of %.0f scheduled", a.achievedRate, w.e.sc.Rate)
	}
	m := w.shape(a, b)
	return median(m.p50s), m.layer, nil
}

// phases splits seconds between the open and the closed loop.
func (w *serveRun) phases(seconds float64) (openFor, closedFor time.Duration) {
	openFor = time.Duration(seconds * w.e.sc.OpenShare * float64(time.Second))
	return openFor, time.Duration(seconds*float64(time.Second)) - openFor
}
