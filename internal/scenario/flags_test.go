package scenario

import (
	"flag"
	"strings"
	"sync"
	"testing"

	"odr/internal/obs"
)

func TestRegisterCommonParse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := RegisterCommon(fs)
	c.RegisterIngest(fs)
	err := fs.Parse([]string{
		"-faults", "0.25", "-cache-policy", "band",
		"-pool-bytes", "1024", "-metrics", "json", "-pprof", ":0",
		"-ingest-workers", "4", "-ingest-queue", "128",
		"-ingest-batch", "32", "-admit-rate", "50",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Common{Faults: "0.25", CachePolicy: "band", PoolBytes: 1024, Metrics: "json", Pprof: ":0",
		IngestWorkers: 4, IngestQueue: 128, IngestBatch: 32, AdmitRate: 50}
	if *c != want {
		t.Fatalf("parsed %+v, want %+v", *c, want)
	}
	// Defaults are all off.
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	c2 := RegisterCommon(fs2)
	c2.RegisterIngest(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *c2 != (Common{}) {
		t.Fatalf("defaults not zero: %+v", *c2)
	}
}

func TestCommonValidate(t *testing.T) {
	cases := []struct {
		name string
		c    Common
		want string
	}{
		{"zero", Common{}, ""},
		{"full", Common{Faults: "0.1", CachePolicy: "lru", PoolBytes: 10, Metrics: "prom"}, ""},
		{"bad metrics", Common{Metrics: "xml"}, "xml"},
		{"bad policy", Common{CachePolicy: "mru"}, "mru"},
		{"bad faults", Common{Faults: "transient=2"}, "transient"},
		{"negative pool", Common{PoolBytes: -1}, "pool-bytes"},
		{"negative workers", Common{IngestWorkers: -1}, "ingest-workers"},
		{"negative queue", Common{IngestQueue: -2}, "ingest-queue"},
		{"negative batch", Common{IngestBatch: -3}, "ingest-batch"},
		{"negative admit", Common{AdmitRate: -0.5}, "admit-rate"},
	}
	for _, tc := range cases {
		err := tc.c.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCommonIngestConfig(t *testing.T) {
	c := Common{IngestWorkers: 3, IngestQueue: 64, IngestBatch: 16, AdmitRate: 10}
	cfg := c.IngestConfig()
	if cfg.Workers != 3 || cfg.QueueDepth != 64 || cfg.MaxBatch != 16 || cfg.AdmitRate != 10 {
		t.Fatalf("IngestConfig dropped a knob: %+v", cfg)
	}
}

func TestCommonRegistryAndApplyTo(t *testing.T) {
	if reg := (&Common{}).Registry(); reg != nil {
		t.Fatal("metrics off should disable the registry")
	}
	if reg := (&Common{Metrics: "json"}).Registry(); reg == nil {
		t.Fatal("metrics on should create a registry")
	}
	c := Common{Faults: "0.25", CachePolicy: "band", PoolBytes: 42}
	spec := Spec{Name: "keep", Shards: 3}
	c.ApplyTo(&spec)
	if spec.Faults != "0.25" || spec.CachePolicy != "band" || spec.PoolBytes != 42 {
		t.Fatalf("ApplyTo missed shared fields: %+v", spec)
	}
	if spec.Name != "keep" || spec.Shards != 3 {
		t.Fatalf("ApplyTo clobbered spec-only fields: %+v", spec)
	}
}

func TestDumpSnapshotAndRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("odr_test_total").Add(3)

	var b strings.Builder
	if err := DumpRegistry(&b, reg, "json"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"odr_test_total": 3`) {
		t.Fatalf("json dump missing counter: %s", b.String())
	}
	b.Reset()
	if err := DumpRegistry(&b, reg, "prom"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "odr_test_total 3") {
		t.Fatalf("prom dump missing counter: %s", b.String())
	}
	b.Reset()
	if err := DumpRegistry(&b, reg, ""); err != nil || b.Len() != 0 {
		t.Fatalf("empty format wrote %q (err %v)", b.String(), err)
	}
	if err := DumpRegistry(&b, nil, "json"); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry wrote %q (err %v)", b.String(), err)
	}
	if err := DumpSnapshot(&b, obs.NewRegistry().Snapshot(), ""); err != nil || b.Len() != 0 {
		t.Fatalf("empty-format snapshot wrote %q (err %v)", b.String(), err)
	}
}

func TestServePprofReportsErrors(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, format)
	}
	// An unbindable address makes ListenAndServe fail immediately, which
	// exercises the full startup path without holding a real listener.
	ServePprof("240.0.0.0:0", logf)
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 || !strings.Contains(lines[1], "pprof: %v") {
		t.Fatalf("expected startup + error log lines, got %v", lines)
	}
}
