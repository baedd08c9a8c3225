package odrweb

import (
	"encoding/json"
	"net/http"
	"strconv"
	"testing"

	"odr/internal/ingest"
)

// BenchmarkBatchHandler is the serve path's ledger entry: the canonical
// 256-item batch TestBatchHandlerAllocs gates — half the items with a
// smart AP, half without, every item its own user — through ServeHTTP
// with two ingest workers: decode, admission, the ingest hand-off, the
// workers' decisions and encode. ns/item is ns/op over the batch;
// allocs/op counts every goroutine's allocations.
func BenchmarkBatchHandler(b *testing.B) {
	s, _, _ := newBatchServer(b, ingest.Config{Workers: 2})
	files := testFiles()
	items := make([]BatchItem, 256)
	for i := range items {
		aux := goodAux()
		if i%2 == 1 {
			aux = &AuxInfo{ISP: "telecom", AccessBW: 1 << 20}
		}
		items[i] = BatchItem{Link: files[i%len(files)].SourceURL, User: "u" + strconv.Itoa(i), Aux: aux}
	}
	body, err := json.Marshal(BatchRequest{Items: items})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(s, pathBatch, body); rec.Code != http.StatusOK {
			b.Fatalf("batch answered %d: %.200s", rec.Code, rec.Body.Bytes())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(items)), "ns/item")
}
