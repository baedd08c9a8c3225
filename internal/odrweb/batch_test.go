package odrweb

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odr/internal/backend"
	"odr/internal/core"
	"odr/internal/ingest"
	"odr/internal/obs"
)

// newBatchServer stands up a test server with the ingest pipeline mounted.
func newBatchServer(t testing.TB, cfg ingest.Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	files := testFiles()
	advisor := &core.Advisor{
		DB:    core.NewStaticDB(files),
		Cache: cacheSet{files[1].ID: true},
	}
	s := NewServer(advisor, NewMapResolver(files), nil)
	s.StartIngest(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.CloseIngest(ctx)
	})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	client, err := NewClient(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, srv, client
}

func TestBatchHappyPath(t *testing.T) {
	s, _, c := newBatchServer(t, ingest.Config{Workers: 2})
	resp, err := c.DecideBatch(context.Background(), &BatchRequest{
		Aux: goodAux(),
		Items: []BatchItem{
			{Link: "magnet:?xt=urn:btih:hot", User: "alice"},
			{Link: "http://origin/rare.mkv", User: "bob"},
			{Link: "http://origin/hot.iso", User: "alice"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admitted != 3 || resp.Rejected != 0 {
		t.Fatalf("admitted/rejected = %d/%d, want 3/0", resp.Admitted, resp.Rejected)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	wantRoutes := []string{"smart-ap", "cloud", "smart-ap"} // item 2 is cloud-then-AP
	for i, res := range resp.Results {
		if res.Status != http.StatusOK {
			t.Fatalf("item %d status = %d (%s)", i, res.Status, res.Error)
		}
		if res.Decision == nil || res.Decision.Route != wantRoutes[i] {
			t.Fatalf("item %d route = %+v, want %s", i, res.Decision, wantRoutes[i])
		}
	}

	// The pipeline's metrics surface the work on /metrics.
	snap := s.Snapshot()
	if got := snap.Counters["odr_ingest_admitted_total"]; got != 3 {
		t.Fatalf("odr_ingest_admitted_total = %d, want 3", got)
	}
	lat := snap.Histograms["odr_ingest_decide_seconds"]
	if lat.Count != 3 {
		t.Fatalf("decide latency count = %d, want 3", lat.Count)
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(&buf); err != nil {
		t.Fatalf("metrics lint: %v", err)
	}
}

func TestBatchPerItemAuxOverridesDefault(t *testing.T) {
	_, _, c := newBatchServer(t, ingest.Config{Workers: 1})
	noAP := goodAux()
	noAP.HasAP = false
	resp, err := c.DecideBatch(context.Background(), &BatchRequest{
		Aux: goodAux(),
		Items: []BatchItem{
			{Link: "magnet:?xt=urn:btih:hot"},
			{Link: "magnet:?xt=urn:btih:hot", Aux: noAP},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Results[0].Decision.Route; got != "smart-ap" {
		t.Fatalf("default-aux route = %s, want smart-ap", got)
	}
	if got := resp.Results[1].Decision.Route; got != "user-device" {
		t.Fatalf("no-AP override route = %s, want user-device", got)
	}
}

func TestBatchMixedPerItemErrors(t *testing.T) {
	_, _, c := newBatchServer(t, ingest.Config{Workers: 1})
	resp, err := c.DecideBatch(context.Background(), &BatchRequest{
		Aux: goodAux(),
		Items: []BatchItem{
			{Link: ""},                          // missing link
			{Link: "http://origin/unknown.bin"}, // unresolvable
			{Link: "magnet:?xt=urn:btih:hot"},   // fine
			{Link: "http://x", Aux: &AuxInfo{}}, // invalid aux
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admitted != 2 { // unresolvable links fail in the worker, after admission
		t.Fatalf("admitted = %d, want 2", resp.Admitted)
	}
	wantStatus := []int{400, 404, 200, 400}
	for i, res := range resp.Results {
		if res.Status != wantStatus[i] {
			t.Fatalf("item %d status = %d (%s), want %d", i, res.Status, res.Error, wantStatus[i])
		}
	}
	if resp.Results[2].Decision == nil {
		t.Fatal("good item lost its decision")
	}
}

func TestBatchWithoutIngest503(t *testing.T) {
	srv, _ := newTestServer(t) // no StartIngest
	body, _ := json.Marshal(BatchRequest{Aux: goodAux(), Items: []BatchItem{{Link: "x"}}})
	resp, err := http.Post(srv.URL+"/api/v1/decide/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

func TestBatchAliasPath(t *testing.T) {
	_, srv, _ := newBatchServer(t, ingest.Config{Workers: 1})
	body, _ := json.Marshal(BatchRequest{Aux: goodAux(),
		Items: []BatchItem{{Link: "magnet:?xt=urn:btih:hot"}}})
	resp, err := http.Post(srv.URL+"/v1/decide/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alias path status = %d, want 200", resp.StatusCode)
	}
}

func TestBatchEmptyItems400(t *testing.T) {
	_, srv, _ := newBatchServer(t, ingest.Config{Workers: 1})
	resp, err := http.Post(srv.URL+"/api/v1/decide/batch", "application/json",
		strings.NewReader(`{"items":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestBodyTooLarge413(t *testing.T) {
	s, srv, _ := newBatchServer(t, ingest.Config{Workers: 1})
	s.SetMaxBodyBytes(256)
	big := strings.Repeat("x", 1024)
	for _, path := range []string{"/api/v1/decide", "/api/v1/decide/batch"} {
		body, _ := json.Marshal(map[string]string{"link": big})
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: decoding 413 body: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d, want 413", path, resp.StatusCode)
		}
		if e.Error == "" {
			t.Fatalf("%s: 413 without a structured error", path)
		}
	}
}

func TestBatchAdmission429(t *testing.T) {
	_, _, c := newBatchServer(t, ingest.Config{
		Workers: 1, AdmitRate: 0.001, AdmitBurst: 2,
	})
	resp, err := c.DecideBatch(context.Background(), &BatchRequest{
		Aux: goodAux(),
		Items: []BatchItem{
			{Link: "magnet:?xt=urn:btih:hot", User: "greedy"},
			{Link: "magnet:?xt=urn:btih:hot", User: "greedy"},
			{Link: "magnet:?xt=urn:btih:hot", User: "greedy"}, // over the burst of 2
			{Link: "magnet:?xt=urn:btih:hot", User: "frugal"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admitted != 3 || resp.Rejected != 1 {
		t.Fatalf("admitted/rejected = %d/%d, want 3/1", resp.Admitted, resp.Rejected)
	}
	over := resp.Results[2]
	if over.Status != http.StatusTooManyRequests {
		t.Fatalf("over-budget status = %d, want 429", over.Status)
	}
	if over.RetryAfterSeconds <= 0 {
		t.Fatal("429 result should carry a retry-after hint")
	}

	// A batch whose every item bounces on admission collapses to a 429
	// call with a Retry-After header.
	resp, err = c.DecideBatch(context.Background(), &BatchRequest{
		Aux:   goodAux(),
		Items: []BatchItem{{Link: "magnet:?xt=urn:btih:hot", User: "greedy"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admitted != 0 || resp.Results[0].Status != http.StatusTooManyRequests {
		t.Fatalf("exhausted user got %+v, want all-429", resp)
	}
}

func TestBatchAll429SetsRetryAfterHeader(t *testing.T) {
	_, srv, _ := newBatchServer(t, ingest.Config{
		Workers: 1, AdmitRate: 0.001, AdmitBurst: 1,
	})
	body, _ := json.Marshal(BatchRequest{Aux: goodAux(), Items: []BatchItem{
		{Link: "magnet:?xt=urn:btih:hot", User: "u"},
		{Link: "magnet:?xt=urn:btih:hot", User: "u"},
	}})
	// First call spends the burst (one admitted); second is fully rejected.
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/api/v1/decide/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("status = %d, want 429", resp.StatusCode)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After header")
			}
		}
		resp.Body.Close()
		body, _ = json.Marshal(BatchRequest{Aux: goodAux(), Items: []BatchItem{
			{Link: "magnet:?xt=urn:btih:hot", User: "u"},
		}})
	}
}

// TestBatchQueueFullBackpressure wedges the single worker inside the
// health hook, fills the one-slot queue, and checks that overflow comes
// back as per-item (and, when everything bounces, call-level) 503s with
// the queue-depth gauge pinned at capacity.
func TestBatchQueueFullBackpressure(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unwedge := func() { releaseOnce.Do(func() { close(release) }) }
	defer unwedge()
	var first atomic.Bool
	s, srv, c := newBatchServer(t, ingest.Config{Workers: 1, QueueDepth: 1})
	s.SetHealth(func(core.Route) backend.Health {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return backend.Healthy
	})

	// Wedge the worker on a one-item batch.
	firstDone := make(chan error, 1)
	go func() {
		_, err := c.DecideBatch(context.Background(), &BatchRequest{
			Aux:   goodAux(),
			Items: []BatchItem{{Link: "magnet:?xt=urn:btih:hot", User: "w"}},
		})
		firstDone <- err
	}()
	<-entered

	// Fill the queue with a raw POST (its handler blocks in g.Wait, so it
	// must run in a goroutine too).
	fillDone := make(chan error, 1)
	fillBody, _ := json.Marshal(BatchRequest{Aux: goodAux(),
		Items: []BatchItem{{Link: "magnet:?xt=urn:btih:hot", User: "f"}}})
	go func() {
		resp, err := http.Post(srv.URL+"/api/v1/decide/batch", "application/json",
			bytes.NewReader(fillBody))
		if err == nil {
			resp.Body.Close()
		}
		fillDone <- err
	}()
	// Wait until the filler's item is actually queued.
	for i := 0; s.Ingest().QueueDepth() < 1; i++ {
		if i > 1000 {
			t.Fatal("fill item never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Now the queue is full: a fresh batch is rejected with 503s.
	resp, err := c.DecideBatch(context.Background(), &BatchRequest{
		Aux: goodAux(),
		Items: []BatchItem{
			{Link: "magnet:?xt=urn:btih:hot", User: "x"},
			{Link: "magnet:?xt=urn:btih:hot", User: "y"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admitted != 0 || resp.Rejected != 2 {
		t.Fatalf("admitted/rejected = %d/%d, want 0/2", resp.Admitted, resp.Rejected)
	}
	for i, r := range resp.Results {
		if r.Status != http.StatusServiceUnavailable {
			t.Fatalf("item %d status = %d, want 503", i, r.Status)
		}
	}
	if got := s.Ingest().QueueDepth(); got != 1 {
		t.Fatalf("queue depth = %d, want 1 (bounded at capacity)", got)
	}
	if got := s.Snapshot().Counters[`odr_ingest_rejected_total{cause="queue_full"}`]; got != 2 {
		t.Fatalf("queue_full rejections = %d, want 2", got)
	}

	unwedge()
	if err := <-firstDone; err != nil {
		t.Fatalf("wedged batch: %v", err)
	}
	if err := <-fillDone; err != nil {
		t.Fatalf("fill batch: %v", err)
	}
}

// TestBatchDrain pins the shutdown contract: CloseIngest processes what
// was queued, and later batches are refused with a call-level 503.
func TestBatchDrain(t *testing.T) {
	s, _, c := newBatchServer(t, ingest.Config{Workers: 2})
	resp, err := c.DecideBatch(context.Background(), &BatchRequest{
		Aux:   goodAux(),
		Items: []BatchItem{{Link: "magnet:?xt=urn:btih:hot"}},
	})
	if err != nil || resp.Results[0].Status != http.StatusOK {
		t.Fatalf("pre-drain batch failed: %v %+v", err, resp)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.CloseIngest(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	resp, err = c.DecideBatch(context.Background(), &BatchRequest{
		Aux:   goodAux(),
		Items: []BatchItem{{Link: "magnet:?xt=urn:btih:hot"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admitted != 0 || resp.Results[0].Status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain batch = %+v, want all-503", resp)
	}
	if got := resp.Results[0].Error; !strings.Contains(got, "draining") {
		t.Fatalf("post-drain error = %q, want a draining hint", got)
	}
}

func TestBatchTooManyItems413(t *testing.T) {
	s, srv, _ := newBatchServer(t, ingest.Config{Workers: 1})
	s.SetMaxBodyBytes(64 << 20) // let the item cap, not the byte cap, bite
	items := make([]BatchItem, MaxBatchItems+1)
	for i := range items {
		items[i] = BatchItem{Link: "magnet:?xt=urn:btih:hot"}
	}
	body, _ := json.Marshal(BatchRequest{Aux: goodAux(), Items: items})
	resp, err := http.Post(srv.URL+"/api/v1/decide/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestSetMaxBodyBytesPanicsOnNonPositive(t *testing.T) {
	s := NewServer(&core.Advisor{DB: core.NewStaticDB(nil)}, NewMapResolver(nil), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("SetMaxBodyBytes(0) should panic")
		}
	}()
	s.SetMaxBodyBytes(0)
}

func TestStartIngestTwicePanics(t *testing.T) {
	s, _, _ := newBatchServer(t, ingest.Config{Workers: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("second StartIngest should panic")
		}
	}()
	s.StartIngest(ingest.Config{Workers: 1})
}

// TestBatchMetricsEqualPerItemSums: a batch's decisions reach /metrics
// folded once per processor call, and the folded series must equal what
// the same items decided one by one on the single-decide endpoint add
// up to — decisions per backend, reroute hops per reason, and the
// resolved-bytes histogram bucket for bucket — and what the batch's own
// answers count.
func TestBatchMetricsEqualPerItemSums(t *testing.T) {
	health := func(r core.Route) backend.Health {
		switch r {
		case core.RouteSmartAP:
			return backend.Unavailable
		case core.RouteCloudThenAP:
			return backend.Impaired
		}
		return backend.Healthy
	}
	batchSrv, _, bc := newBatchServer(t, ingest.Config{Workers: 2, MaxBatch: 3})
	batchSrv.SetHealth(health)
	singleSrv, _, sc := newBatchServer(t, ingest.Config{Workers: 1})
	singleSrv.SetHealth(health)

	slow := goodAux()
	slow.AccessBW = 100 * 1024
	auxes := []*AuxInfo{goodAux(), slow, {ISP: "telecom", AccessBW: 1 << 20}}
	links := []string{"magnet:?xt=urn:btih:hot", "http://origin/rare.mkv", "http://origin/hot.iso"}
	var items []BatchItem
	for i := 0; i < 40; i++ {
		items = append(items, BatchItem{Link: links[i%len(links)], User: "u" + strconv.Itoa(i%5), Aux: auxes[i%len(auxes)]})
	}
	resp, err := bc.DecideBatch(context.Background(), &BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admitted != len(items) {
		t.Fatalf("admitted %d of %d", resp.Admitted, len(items))
	}
	byBackend := map[string]uint64{}
	for i, it := range items {
		single, err := sc.Decide(context.Background(), it.Link, it.Aux)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Results[i].Decision; got == nil || !reflect.DeepEqual(*got, *single) {
			t.Fatalf("item %d: batch decided %+v, single %+v", i, got, single)
		}
		byBackend[single.Backend]++
	}

	batch, ref := batchSrv.Snapshot(), singleSrv.Snapshot()
	for name := range byBackend {
		if got := batch.Counters[obs.Label(metricDecisions, "backend", name)]; got != byBackend[name] {
			t.Fatalf("decisions{backend=%q} = %d, the answers count %d", name, got, byBackend[name])
		}
	}
	for name, want := range ref.Counters {
		series := strings.HasPrefix(name, metricDecisions) || strings.HasPrefix(name, metricRerouted)
		if series && batch.Counters[name] != want {
			t.Fatalf("%s: batch %d, per-item sum %d", name, batch.Counters[name], want)
		}
	}
	for _, reason := range rerouteReasons {
		name := obs.Label(metricRerouted, "reason", reason)
		if ref.Counters[name] == 0 {
			t.Fatalf("%s is 0: the items exercise no such hop", name)
		}
	}
	if got, want := batch.Histograms[metricResolvedBytes], ref.Histograms[metricResolvedBytes]; got.Count != uint64(len(items)) ||
		!reflect.DeepEqual(got, want) {
		t.Fatalf("%s: batch %+v, per-item sum %+v", metricResolvedBytes, got, want)
	}
}
