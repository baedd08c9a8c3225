package odr

import (
	"context"
	"net/http/httptest"
	"testing"

	"odr/internal/storage"
)

// TestFacadeEndToEnd exercises the public API the way the quickstart
// example does: generate a trace, simulate the week, replay ODR, and query
// the web service.
func TestFacadeEndToEnd(t *testing.T) {
	tr, err := GenerateTrace(DefaultTraceConfig(3000, 1))
	if err != nil {
		t.Fatal(err)
	}
	c := SimulateWeek(tr, DefaultCloudConfig(3000.0/563517, 1))
	if len(c.Records()) != len(tr.Requests) {
		t.Fatal("week simulation incomplete")
	}

	sample := UnicomSample(tr, 200, 1)
	aps := BenchmarkedAPs()
	bench, err := RunAPBenchmarkStream(NewSliceSource(sample), aps, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bench.FailureRatio() <= 0 {
		t.Fatal("AP benchmark produced no failures at all — implausible")
	}
	res, err := RunODRStream(NewSliceSource(sample), tr.Files, aps, ReplayOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnpopularFailureRatio() >= bench.UnpopularFailureRatio() {
		t.Fatal("ODR did not improve on the AP baseline")
	}
}

// TestFacadeStreaming drives the bounded-memory pipeline through the
// public API and checks it reproduces the slice pipeline exactly.
func TestFacadeStreaming(t *testing.T) {
	cfg := DefaultTraceConfig(3000, 1)
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := GenerateTraceStream(cfg, DefaultStreamChunk)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalRequests() != len(tr.Requests) {
		t.Fatalf("stream reports %d requests, slice has %d",
			st.TotalRequests(), len(tr.Requests))
	}

	sample, err := UnicomSampleStream(st.Requests(), 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := UnicomSample(tr, 200, 1)
	if len(sample) != len(want) {
		t.Fatalf("stream sample has %d requests, slice sample %d", len(sample), len(want))
	}
	for i := range sample {
		if sample[i].Time != want[i].Time ||
			sample[i].User.ID != want[i].User.ID ||
			sample[i].File.ID != want[i].File.ID {
			t.Fatalf("sample[%d] differs between stream and slice", i)
		}
	}

	aps := BenchmarkedAPs()
	res, err := RunODRStream(NewSliceSource(sample), st.Files, aps, ReplayOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunODRStream(NewSliceSource(want), tr.Files, aps, ReplayOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != len(ref.Tasks) ||
		res.CloudBytes() != ref.CloudBytes() ||
		res.ImpededRatio() != ref.ImpededRatio() {
		t.Fatal("stream-sampled ODR replay diverged from the slice-sampled one")
	}

	bench, err := RunAPBenchmarkStream(NewSliceSource(sample), aps, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	refBench, err := RunAPBenchmarkStream(NewSliceSource(want), aps, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bench.FailureRatio() != refBench.FailureRatio() {
		t.Fatal("stream-sampled AP benchmark diverged from the slice-sampled one")
	}

	back, err := CollectRequests(st.Requests())
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tr.Requests) {
		t.Fatalf("CollectRequests returned %d of %d requests", len(back), len(tr.Requests))
	}
}

func TestFacadeDecide(t *testing.T) {
	d := Decide(Input{
		Protocol: 0, // bittorrent
		Band:     2, // highly popular
		Cached:   true,
		ISP:      1, // unicom
		AccessBW: 2.5 * 1024 * 1024,
		HasAP:    true,
		APStorage: StorageDevice{
			Type: storage.SATAHDD, FS: storage.EXT4,
		},
		APCPUGHz: 1.0,
	})
	if d.Source != SourceOriginal || d.Route != RouteSmartAP {
		t.Fatalf("decision = %+v", d)
	}
}

func TestFacadeWebService(t *testing.T) {
	tr, err := GenerateTrace(DefaultTraceConfig(500, 2))
	if err != nil {
		t.Fatal(err)
	}
	c := SimulateWeek(tr, DefaultCloudConfig(500.0/563517, 2))
	advisor := &Advisor{DB: c.DB(), Cache: c.Pool()}
	srv := httptest.NewServer(NewWebServer(advisor, NewMapResolver(tr.Files), nil))
	defer srv.Close()

	client, err := NewWebClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Decide(context.Background(), tr.Files[0].SourceURL, &AuxInfo{
		ISP: "unicom", AccessBW: 1024 * 1024,
		HasAP: true, APStorage: "usb-hdd", APFS: "ext4", APCPUGHz: 0.58,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Route == "" || resp.Reason == "" {
		t.Fatalf("incomplete decision %+v", resp)
	}
}

func TestLabSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("lab smoke test is slow")
	}
	lab := NewLab(LabConfig{NumFiles: 3000, SampleSize: 300, Seed: 3})
	reports := lab.All()
	if len(reports) != 22 {
		t.Fatalf("reports = %d", len(reports))
	}
}
