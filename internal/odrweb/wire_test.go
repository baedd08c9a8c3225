package odrweb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
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

// The body caps of the codec tests' servers: the table's lets
// MaxBatchItems+1 minimal items through, the fuzzer's is one a mutated
// body can cross.
const (
	wireCap = 64 << 10
	fuzzCap = 1 << 10
)

// The canonical request bodies the fallback and edge rows are variations
// of: the shapes json.Marshal writes for the two request types.
const (
	wireAux    = `{"isp":"unicom","access_bw":2621440,"has_ap":true,"ap_storage":"sata-hdd","ap_fs":"ext4","ap_cpu_ghz":1}`
	wireSingle = `{"link":"magnet:?xt=urn:btih:hot","aux":` + wireAux + `}`
	wireBatch  = `{"items":[{"link":"magnet:?xt=urn:btih:hot","user":"u1","aux":` + wireAux + `},{"link":"http://origin/rare.mkv"}],"aux":` + wireAux + `}`
)

// kelvinK is U+212A KELVIN SIGN, which encoding/json folds onto 'k'.
const kelvinK = "\xe2\x84\xaa"

// wireFallbackRows are bodies the scanner must decline, for each endpoint,
// on a server capped at limit bytes: every one is still answered exactly
// as the oracle answers it.
func wireFallbackRows(limit int) []struct{ name, single, batch string } {
	pad := strings.Repeat(" x", limit) // garbage that crosses the cap
	item := `{"link":"magnet:?xt=urn:btih:hot","user":"u1","aux":` + wireAux + `}`
	return []struct{ name, single, batch string }{
		{"upper-case key",
			`{"LINK":"magnet:?xt=urn:btih:hot","aux":` + wireAux + `}`,
			`{"items":[{"LINK":"magnet:?xt=urn:btih:hot","aux":` + wireAux + `}]}`},
		{"kelvin-sign key",
			`{"lin` + kelvinK + `":"magnet:?xt=urn:btih:hot","aux":` + wireAux + `}`,
			`{"items":[{"lin` + kelvinK + `":"magnet:?xt=urn:btih:hot","aux":` + wireAux + `}]}`},
		{"duplicate key",
			`{"link":"x","link":"magnet:?xt=urn:btih:hot","aux":` + wireAux + `}`,
			`{"items":[` + item + `],"aux":{"isp":"mobile"},"aux":` + wireAux + `}`},
		{"unknown field",
			`{"link":"magnet:?xt=urn:btih:hot","aux":` + wireAux + `,"extra":[1]}`,
			`{"items":[{"link":"magnet:?xt=urn:btih:hot","user":"u1","colour":"red"}],"aux":` + wireAux + `}`},
		{"null aux",
			`{"link":"magnet:?xt=urn:btih:hot","aux":null}`,
			`{"items":[{"link":"magnet:?xt=urn:btih:hot","aux":null}],"aux":` + wireAux + `}`},
		{"escape",
			`{"link":"http://origin/rare.mkv?a=1` + `\` + `u0026b=<2>","aux":` + wireAux + `}`,
			`{"items":[{"link":"http://origin/rare.mkv?a=1` + `\` + `u0026b=<2>"}],"aux":` + wireAux + `}`},
		{"invalid UTF-8",
			`{"link":"http://origin/` + "\xff\xfe" + `","aux":` + wireAux + `}`,
			`{"items":[{"link":"http://origin/` + "\xff\xfe" + `"}],"aux":` + wireAux + `}`},
		{"out-of-range number",
			`{"link":"magnet:?xt=urn:btih:hot","aux":{"isp":"unicom","access_bw":1e400}}`,
			`{"items":[` + item + `],"aux":{"isp":"unicom","access_bw":-1e400}}`},
		{"trailing garbage", wireSingle + `x`, wireBatch + `]`},
		{"garbage across the cap", wireSingle + pad, wireBatch + pad},
	}
}

// wireEdgeRows are bodies either path may take; they must still answer as
// the oracle does.
func wireEdgeRows() []struct{ name, single, batch string } {
	tooMany := make([]BatchItem, MaxBatchItems+1)
	for i := range tooMany {
		tooMany[i].Link = "a"
	}
	raw, _ := json.Marshal(BatchRequest{Items: tooMany})
	return []struct{ name, single, batch string }{
		{"negative zero",
			`{"link":"magnet:?xt=urn:btih:hot","aux":{"isp":"unicom","access_bw":-0}}`,
			`{"items":[{"link":"magnet:?xt=urn:btih:hot","aux":{"isp":"unicom","access_bw":-0}}]}`},
		{"empty items", `{}`, `{"items":[]}`},
		{"MaxBatchItems+1", `{"link":""}`, string(raw)},
	}
}

// newWireServer is a batch server capped at limit bytes.
func newWireServer(t testing.TB, limit int) *Server {
	s, _, _ := newBatchServer(t, ingest.Config{Workers: 2})
	s.SetMaxBodyBytes(int64(limit))
	return s
}

// fallbacks reads a decide endpoint's odr_wire_decode_fallback_total.
func fallbacks(s *Server, path string) uint64 {
	return s.Snapshot().Counters[obs.Label(metricWireFallback, "path", path)]
}

// TestWireFastPathBoundary pins both sides of the scanner's boundary. Every
// body the repo's own clients send — odrweb.Client (and so cmd/odrserver's
// test) and the json.Marshal bodies bench/ posts — takes the fast path, so
// the gain cannot silently vanish behind the fallback; every non-canonical
// body falls back; every body, on either side, answers as the oracle does.
func TestWireFastPathBoundary(t *testing.T) {
	t.Run("clients take the fast path", func(t *testing.T) {
		s, _, _ := newBatchServer(t, ingest.Config{Workers: 2})
		var mu sync.Mutex
		var sent []struct {
			path string
			body []byte
		}
		capture := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			sent = append(sent, struct {
				path string
				body []byte
			}{r.URL.Path, body})
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
			s.ServeHTTP(w, r)
		}))
		defer capture.Close()
		c, err := NewClient(capture.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		noAP := &AuxInfo{ISP: "mobile", AccessBW: 1 << 20} // bench/'s odd users
		withAP := &AuxInfo{ISP: "telecom", AccessBW: 312345.678, HasAP: true,
			APStorage: "sata-hdd", APFS: "ext4", APCPUGHz: 1.2} // its even users
		for _, aux := range []*AuxInfo{goodAux(), noAP, withAP, nil} { // nil: the cookie
			if _, err := c.Decide(ctx, "magnet:?xt=urn:btih:hot", aux); err != nil {
				t.Fatal(err)
			}
		}
		items := []BatchItem{
			{Link: "magnet:?xt=urn:btih:hot", User: "u1"},
			{Link: "http://origin/rare.mkv", User: "u2", Aux: noAP},
			{Link: "http://nowhere/x"},
		}
		for _, req := range []*BatchRequest{
			{Aux: withAP, Items: items},        // one call-level aux
			{Items: items[1:2]},                // per-item aux only
			{Aux: goodAux(), Items: items[:1]}, // README's curl shape
		} {
			if _, err := c.DecideBatch(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
		if n := fallbacks(s, pathDecide) + fallbacks(s, pathBatch); n != 0 {
			t.Fatalf("%d client bodies fell back to encoding/json", n)
		}
		// bench/'s bodies: json.Marshal of the two request types with
		// every item carrying a user and an aux.
		benchItems := []BatchItem{
			{Link: "magnet:?xt=urn:btih:hot", User: "u0", Aux: withAP},
			{Link: "http://origin/hot.iso", User: "u7", Aux: noAP},
		}
		single, _ := json.Marshal(DecideRequest{Link: benchItems[0].Link, Aux: benchItems[0].Aux})
		batch, _ := json.Marshal(BatchRequest{Items: benchItems})
		mu.Lock()
		defer mu.Unlock()
		for _, sb := range sent {
			sameAnswer(t, s, sb.path, sb.body)
		}
		sameAnswer(t, s, pathDecide, single)
		sameAnswer(t, s, pathBatch, batch)
		if n := fallbacks(s, pathDecide) + fallbacks(s, pathBatch); n != 0 {
			t.Fatalf("%d client bodies fell back to encoding/json", n)
		}
	})

	s := newWireServer(t, wireCap)
	for _, row := range wireFallbackRows(wireCap) {
		for _, c := range []struct{ path, body string }{{pathDecide, row.single}, {pathBatch, row.batch}} {
			before := fallbacks(s, c.path)
			sameAnswer(t, s, c.path, []byte(c.body))
			if got := fallbacks(s, c.path) - before; got != 1 {
				t.Errorf("%s %s: %d fallbacks, want 1", row.name, c.path, got)
			}
		}
	}
	for _, row := range wireEdgeRows() {
		sameAnswer(t, s, pathDecide, []byte(row.single))
		sameAnswer(t, s, pathBatch, []byte(row.batch))
	}
	// The parent answered a valid value followed by garbage past the cap
	// with 200: encoding/json stops at the end of the first value.
	if code := serve(s, pathBatch, []byte(wireBatch+strings.Repeat(" x", wireCap))).Code; code != http.StatusOK {
		t.Fatalf("valid batch + garbage past the cap answered %d, want 200", code)
	}
}

// checkDecode fails unless scan accepts exactly the canonical bodies of
// kind, an accepted body holds what encoding/json decodes from it, and a
// declined body leaves the destination untouched.
func checkDecode[T any](t *testing.T, b []byte, kind string, scan func(string, *T) bool) {
	t.Helper()
	var got T
	accepted := scan(string(b), &got)
	if canon := canonicalBody(b, kind); accepted != canon {
		t.Fatalf("%s: scanner accepted=%v but canonical=%v: %q", kind, accepted, canon, b)
	}
	if !accepted {
		if !reflect.ValueOf(got).IsZero() {
			t.Fatalf("%s: a declined body wrote %+v", kind, got)
		}
		return
	}
	var want T
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&want); err != nil {
		t.Fatalf("%s: scanner accepted what encoding/json refuses (%v): %q", kind, err, b)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %q\nscanner       %+v\nencoding/json %+v", kind, b, got, want)
	}
}

// FuzzWireDecode: for arbitrary bytes, the scanner accepts exactly the
// canonical bodies of each request type, and an accepted body holds
// exactly what encoding/json decodes; and both endpoints answer every body
// through ServeHTTP exactly as the oracle answers it.
func FuzzWireDecode(f *testing.F) {
	s := newWireServer(f, fuzzCap)
	f.Add([]byte(wireSingle))
	f.Add([]byte(wireBatch))
	indented, _ := json.MarshalIndent(BatchRequest{Aux: goodAux(), Items: []BatchItem{
		{Link: "magnet:?xt=urn:btih:hot", User: "u1"}, {Link: "http://origin/rare.mkv", Aux: goodAux()}}}, " ", "\t")
	f.Add(indented)
	f.Add([]byte(`{"link":"é ` + string(rune(0x2028)) + string(rune(0x10FFFF)) + `","aux":{"isp":"unicom","access_bw":1.5e-7,"has_ap":false}}`))
	f.Add([]byte(`{"aux":{"isp":"cernet","access_bw":1E+3,"ap_cpu_ghz":-0.0},"items":[{},{"user":""}]}`))
	f.Add([]byte(`{"link":"a","aux":{"has_ap":tru}}`))
	f.Add([]byte(`{"items":[{"link":"a"},]}`))
	f.Add([]byte(`{"items":[{"link":"a"}] "aux":{}}`))
	f.Add([]byte(`{"link":"a","aux":{"access_bw":01}}`))
	f.Add([]byte(`{"link":"a","aux":{"access_bw":1.}}`))
	f.Add([]byte(`{"link":"a\tb"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	for _, rows := range [][]struct{ name, single, batch string }{wireFallbackRows(fuzzCap), wireEdgeRows()} {
		for _, row := range rows {
			for _, body := range []string{row.single, row.batch} {
				if len(body) < 4*fuzzCap { // mutating huge seeds stalls the fuzzer
					f.Add([]byte(body))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, "decide", decodeDecide)
		checkDecode(t, b, "batch", decodeBatch)
		sameAnswer(t, s, pathDecide, b)
		sameAnswer(t, s, pathBatch, b)
	})
}

// sameBytes fails unless the encoder's output for v — got, ok — is what
// encoding/json writes (json.Encoder.Encode when encoder, else
// json.Marshal), refusing exactly what encoding/json refuses.
func sameBytes(t *testing.T, v any, got []byte, ok, encoder bool) {
	t.Helper()
	var want []byte
	var err error
	if encoder {
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(v)
		want, got = buf.Bytes(), append(got, '\n')
	} else {
		want, err = json.Marshal(v)
	}
	if ok != (err == nil) {
		t.Fatalf("%T: encoder ok=%v, encoding/json error %v", v, ok, err)
	}
	if ok && !bytes.Equal(got, want) {
		t.Fatalf("%T:\nencoder       %q\nencoding/json %q", v, got, want)
	}
}

// sameWrite fails unless write answers as writeJSON's oracle copy does.
func sameWrite(t *testing.T, write func(http.ResponseWriter), status int, v any) {
	t.Helper()
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	write(got)
	oracleWriteJSON(want, status, v)
	sameRecorded(t, fmt.Sprintf("%T", v), got, want)
}

// FuzzWireEncode: for arbitrary strings, ints, floats and flags, the
// append encoder writes BatchResponse, DecideResponse and AuxInfo byte for
// byte as encoding/json does — HTML escaping, control bytes, invalid
// UTF-8, U+2028/2029, the float format and its cut-offs, omitempty, nil
// vs empty slices — and refuses what it refuses (NaN, ±Inf).
func FuzzWireEncode(f *testing.F) {
	strs := []string{"", "cloud", `<a href="x">&amp;</a>`, "quote\" back\\slash /",
		"\x00\x01\b\f\n\r\t\x1f\x7f", string(rune(0x2028)) + "x" + string(rune(0x2029)),
		"\xff\xfe\xc3(\xed\xa0\x80", string(rune(0x10FFFF)) + "é" + string(rune(0xFFFD))}
	floats := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-7,
		1e-10, 1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 5e-324, math.MaxFloat64, 0.1,
		2621440, 123456789e-15, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, s := range strs {
		f.Add(s, strs[(i+1)%len(strs)], i*7-3, floats[i%len(floats)], uint8(i*37))
	}
	for i, x := range floats {
		f.Add("a", "b", 429, x, uint8(i))
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, n int, x float64, flags uint8) {
		dec := DecideResponse{Route: s1, Backend: s2, Source: s1 + s2, Reason: s2, Band: s1,
			Cached: flags&1 != 0, Health: s2, Rerouted: flags&2 != 0}
		switch flags >> 2 & 3 { // 0 leaves Addresses nil
		case 1:
			dec.Addresses = []int{}
		case 2:
			dec.Addresses = []int{n, -n, 0, 4}
		case 3:
			dec.Addresses = []int{n}
		}
		resp := BatchResponse{Results: []BatchResult{
			{Status: n, Error: s1, RetryAfterSeconds: x, Decision: &dec},
			{Status: http.StatusOK, Decision: &dec},
			{Status: -n, Error: s2, RetryAfterSeconds: -x},
			{},
		}, Admitted: n, Rejected: -n}
		if flags&16 != 0 {
			resp.Results = nil
		}
		aux := AuxInfo{ISP: s1, AccessBW: x, HasAP: flags&1 != 0, APStorage: s2, APFS: s1, APCPUGHz: -x}
		if flags&32 != 0 {
			aux.APStorage, aux.APFS, aux.APCPUGHz = "", "", 0
		}

		sameBytes(t, &dec, appendDecision(nil, &dec), true, true)
		got, ok := appendBatch(nil, &resp)
		sameBytes(t, &resp, got, ok, true)
		got, ok = appendAux(nil, &aux)
		sameBytes(t, &aux, got, ok, false)

		sameWrite(t, func(w http.ResponseWriter) { writeDecision(w, http.StatusOK, &dec) }, http.StatusOK, &dec)
		sameWrite(t, func(w http.ResponseWriter) { writeBatch(w, 429, &resp) }, 429, &resp)
		c1, c2 := httptest.NewRecorder(), httptest.NewRecorder()
		setAuxCookie(c1, &aux)
		oracleSetAuxCookie(c2, &aux)
		sameRecorded(t, "odr_aux cookie", c1, c2)
	})
}

// TestBatchCancelledCallsMatchOracle cancels batch calls while their items
// are in flight, interleaved with calls that run to the end, and requires
// every call answered 200 — cancelled or not — to match the oracle byte
// for byte. Under -race it is the proof that no slab or buffer is reused
// while a worker can still write it.
func TestBatchCancelledCallsMatchOracle(t *testing.T) {
	s, _, _ := newBatchServer(t, ingest.Config{Workers: 2, MaxBatch: 4})
	// A slow health probe (once per route per worker batch) keeps items in
	// flight, so a cancelled Wait returns while workers still write its
	// call's slots.
	s.SetHealth(func(core.Route) backend.Health {
		time.Sleep(50 * time.Microsecond)
		return backend.Healthy
	})
	links := []string{"magnet:?xt=urn:btih:hot", "http://origin/rare.mkv", "http://origin/hot.iso", "http://nowhere/x"}
	bodies := make([][]byte, 4)
	want := make([][]byte, len(bodies))
	for i := range bodies {
		items := make([]BatchItem, 48) // one length: a recycled slab would always fit
		for j := range items {
			items[j] = BatchItem{Link: links[(i+j)%len(links)], User: "u" + strconv.Itoa(j%5)}
			if j%3 == 0 {
				items[j].Aux = &AuxInfo{ISP: "telecom", AccessBW: float64(100<<10) * float64(j+1)}
			}
		}
		var err error
		if bodies[i], err = json.Marshal(BatchRequest{Aux: goodAux(), Items: items}); err != nil {
			t.Fatal(err)
		}
		rec := serve(oracleServer{s}, pathBatch, bodies[i])
		if rec.Code != http.StatusOK {
			t.Fatalf("oracle answered %d: %s", rec.Code, rec.Body.Bytes())
		}
		want[i] = rec.Body.Bytes()
	}

	var cancelled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k := (g + i) % len(bodies)
				req := httptest.NewRequest(http.MethodPost, pathBatch, bytes.NewReader(bodies[k]))
				cancel := i%2 == 1
				if cancel {
					ctx, stop := context.WithCancel(req.Context())
					stop() // Wait sees a done context while items are queued
					req = req.WithContext(ctx)
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if cancel && rec.Code == http.StatusServiceUnavailable {
					cancelled.Add(1)
					continue
				}
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[k]) {
					t.Errorf("goroutine %d call %d (cancel %v): %d, body differs from the oracle's:\n got %.400q\nwant %.400q",
						g, i, cancel, rec.Code, rec.Body.Bytes(), want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if cancelled.Load() == 0 {
		t.Fatal("no call was cancelled in flight; the test proved nothing")
	}
}

// TestMetricsExposesStageSeries lints the serve-path stage series: a fresh
// server scrapes every odr_http_stage_seconds{path,stage} and
// odr_wire_decode_fallback_total{path} series at zero, and one canonical
// and one declined body per endpoint land where they should.
func TestMetricsExposesStageSeries(t *testing.T) {
	_, srv, c := newBatchServer(t, ingest.Config{Workers: 1})
	stages := map[string][]string{
		pathDecide: {"decode", "decide", "encode"},
		pathBatch:  {"decode", "submit", "wait", "encode"},
	}
	scrape := func(decodes, rest, fellBack int) {
		t.Helper()
		_, body := get(t, srv.URL+"/metrics")
		if err := obs.LintPrometheus(strings.NewReader(body)); err != nil {
			t.Fatalf("/metrics is not valid exposition: %v", err)
		}
		for path, names := range stages {
			for _, st := range names {
				n := rest
				if st == "decode" {
					n = decodes
				}
				want := obs.Label(metricHTTPStage+"_count", "path", path, "stage", st) + " " + strconv.Itoa(n)
				if !strings.Contains(body, want+"\n") {
					t.Errorf("/metrics missing %q", want)
				}
			}
			want := obs.Label(metricWireFallback, "path", path) + " " + strconv.Itoa(fellBack)
			if !strings.Contains(body, want+"\n") {
				t.Errorf("/metrics missing %q", want)
			}
		}
	}
	scrape(0, 0, 0)

	if _, err := c.Decide(context.Background(), "magnet:?xt=urn:btih:hot", goodAux()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecideBatch(context.Background(), &BatchRequest{Aux: goodAux(),
		Items: []BatchItem{{Link: "magnet:?xt=urn:btih:hot"}}}); err != nil {
		t.Fatal(err)
	}
	// Declined bodies that encoding/json then refuses: a decode and a
	// fallback each, and no later stage.
	for _, path := range []string{pathDecide, pathBatch} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(`{"link":nul}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: malformed body answered %d", path, resp.StatusCode)
		}
	}
	scrape(2, 1, 1)
}
