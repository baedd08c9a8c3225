package main

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"odr/internal/cloud"
	"odr/internal/core"
	"odr/internal/obs"
	"odr/internal/odrweb"
	"odr/internal/scenario"
	"odr/internal/workload"
)

// TestServeIngestAndDrain boots the server the way main does, on a
// kernel-chosen port published through the addr file, and drives the
// batched ingest path end to end: one batch through the client must be
// admitted, /metrics must lint clean and count the admission, and SIGTERM
// must drain the server and return cleanly.
func TestServeIngestAndDrain(t *testing.T) {
	const files, seed = 500, 1
	addrFile := filepath.Join(t.TempDir(), "addr")
	errc := make(chan error, 1)
	go func() {
		errc <- run("127.0.0.1:0", addrFile, files, seed, 5*time.Second,
			&scenario.Common{IngestQueue: 1024}, log.New(io.Discard, "", 0))
	}()

	var base string
	for deadline := time.Now().Add(30 * time.Second); base == ""; {
		select {
		case err := <-errc:
			t.Fatalf("server exited before listening: %v", err)
		default:
		}
		if raw, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(raw, []byte("\n")) {
			base = "http://" + strings.TrimSpace(string(raw))
		} else if time.Now().After(deadline) {
			t.Fatal("server published no address within 30s")
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The batch draws its links from the server's own synthetic universe,
	// so every item resolves to a known file.
	st, err := workload.GenerateStream(workload.DefaultConfig(files, seed), 0)
	if err != nil {
		t.Fatal(err)
	}
	src := st.Requests()
	var items []odrweb.BatchItem
	for len(items) < 64 {
		_, req, ok := src.Next()
		if !ok {
			t.Fatalf("trace holds only %d requests", len(items))
		}
		items = append(items, odrweb.BatchItem{Link: req.File.SourceURL, User: "u" + strconv.Itoa(req.User.ID)})
	}
	client, err := odrweb.NewClient(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.DecideBatch(context.Background(), &odrweb.BatchRequest{
		Aux:   &odrweb.AuxInfo{ISP: "unicom", AccessBW: 1 << 20},
		Items: items,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admitted == 0 {
		t.Fatalf("no item admitted: %+v", resp)
	}

	scrape, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(scrape.Body)
	scrape.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintPrometheus(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics does not lint: %v", err)
	}
	admitted := -1.0
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "odr_ingest_admitted_total" {
			if admitted, err = strconv.ParseFloat(f[1], 64); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
		}
	}
	if admitted <= 0 {
		t.Fatalf("odr_ingest_admitted_total = %v after an admitted batch", admitted)
	}

	// A request has been answered, so run's signal handler is installed:
	// SIGTERM is the graceful drain, not the default kill.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain within 30s of SIGTERM")
	}
}

// TestPopularityIndexMatchesContentDB pins the ground the server's
// lock-free popularity index stands on: over the server's own universe,
// core.StaticDB answers every band cloud.ContentDB seeded with the same
// files would, unknown IDs are unpopular in both, and the last of two
// entries for one ID wins in both.
func TestPopularityIndexMatchesContentDB(t *testing.T) {
	tr, err := workload.Generate(workload.DefaultConfig(2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	files := append([]*workload.FileMeta(nil), tr.Files...)
	dup := *files[0]
	dup.WeeklyRequests = workload.BandThresholdHighlyPopular + 1
	files = append(files, &dup)
	static := core.NewStaticDB(files)
	seeded := cloud.NewContentDB()
	seeded.SeedPopularity(files)
	bands := map[workload.PopularityBand]int{}
	for _, f := range files {
		if got, want := static.Band(f.ID), seeded.Band(f.ID); got != want {
			t.Fatalf("file %x: StaticDB band %v, ContentDB band %v", f.ID, got, want)
		}
		bands[static.Band(f.ID)]++
	}
	if len(bands) != 3 {
		t.Fatalf("universe covers bands %v, want all three", bands)
	}
	if got := static.Band(files[0].ID); got != workload.BandHighlyPopular {
		t.Fatalf("duplicate ID: StaticDB band %v, want the last entry's %v", got, workload.BandHighlyPopular)
	}
	var unknown workload.FileID
	unknown[0] = 0xff
	if got, want := static.Band(unknown), seeded.Band(unknown); got != want || got != workload.BandUnpopular {
		t.Fatalf("unknown ID: StaticDB band %v, ContentDB band %v, want unpopular", got, want)
	}
}
