package odrweb

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"odr/internal/ingest"
)

// FuzzDecideBodies: whatever bytes arrive on the two decide endpoints,
// the server answers — never panics — with one of the statuses its
// contract names and a JSON body, and a batch answer accounts for every
// item it was sent.
func FuzzDecideBodies(f *testing.F) {
	s, _, _ := newBatchServer(f, ingest.Config{Workers: 1})
	// Small enough that the fuzzer reaches the byte cap, large enough that
	// MaxBatchItems+1 minimal items fit under it and reach the item cap.
	const maxBody = 64 << 10
	s.SetMaxBodyBytes(maxBody)

	marshal := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	single := marshal(DecideRequest{Link: "magnet:?xt=urn:btih:hot", Aux: goodAux()})
	batch := marshal(BatchRequest{Aux: goodAux(), Items: []BatchItem{
		{Link: "magnet:?xt=urn:btih:hot", User: "u1"},
		{Link: "http://origin/rare.mkv", Aux: &AuxInfo{ISP: "other", AccessBW: 400 * 1024}},
		{Link: "http://nowhere/x"},
		{Link: ""},
		{Link: "http://origin/hot.iso", Aux: &AuxInfo{ISP: "marsnet", AccessBW: 1000}},
	}})
	tooMany := make([]BatchItem, MaxBatchItems+1)
	for i := range tooMany {
		tooMany[i].Link = "a"
	}
	f.Add(single)
	f.Add(batch)
	f.Add(marshal(map[string]string{"link": strings.Repeat("x", maxBody)})) // oversized
	f.Add(single[:len(single)/2])                                           // truncated
	f.Add(batch[:len(batch)-3])
	f.Add([]byte(`{"link":7,"aux":"unicom"}`)) // wrong types
	f.Add([]byte(`{"items":{"link":"a"}}`))
	f.Add([]byte(`{"items":[]}`))
	f.Add([]byte(`{"link":"http://origin/rare.mkv"}`)) // no aux, no cookie
	f.Add([]byte(`{"link":"a","aux":{"isp":"unicom","access_bw":1e999}}`))
	f.Add(marshal(BatchRequest{Items: tooMany}))
	f.Add([]byte("{nope"))

	statuses := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusRequestEntityTooLarge: true, http.StatusTooManyRequests: true,
		http.StatusServiceUnavailable: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/api/v1/decide", "/api/v1/decide/batch"} {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if !statuses[rec.Code] {
				t.Fatalf("%s: status %d is not one the contract names", path, rec.Code)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s: %d answered with a non-JSON body: %q", path, rec.Code, rec.Body.Bytes())
			}
			if path != "/api/v1/decide/batch" || rec.Code != http.StatusOK {
				continue
			}
			// Decode what the server decoded: the first JSON value of the body.
			var req BatchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("200 for a batch body that does not decode: %v", err)
			}
			var resp BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 batch body is not a BatchResponse: %v", err)
			}
			if len(resp.Results) != len(req.Items) || resp.Admitted+resp.Rejected != len(req.Items) {
				t.Fatalf("%d items in, %d results out (admitted %d + rejected %d)",
					len(req.Items), len(resp.Results), resp.Admitted, resp.Rejected)
			}
		}
	})
}
