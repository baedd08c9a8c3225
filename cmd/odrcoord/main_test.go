package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"odr/internal/distrib"
	"odr/internal/scenario"
	"odr/internal/trace"
	"odr/internal/workload"
)

// asCommand, set in a test binary's environment, makes the binary run
// odrcoord's main instead of the tests — so execRunner can re-exec it as
// a real worker process, exactly as the built command re-execs itself.
const asCommand = "ODRCOORD_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommand) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeTrace writes a small bin trace and returns its path and record
// count.
func writeTrace(t *testing.T) (string, int64) {
	t.Helper()
	st, err := workload.GenerateStream(workload.DefaultConfig(300, 9), 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteWorkloadStream(f, "bin", st.Requests()); err != nil {
		t.Fatal(err)
	}
	cen, err := trace.ReadBinCensus(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, cen.Records
}

// TestFlagSurface pins the command's flags. The engine batch size never
// changed a result, the goroutine runner is for tests and the library,
// the worker takes its whole request on stdin, and the coordinator
// reports no timeline, so -chunk, -inprocess, the old worker-only flags
// and -window-hours are usage errors.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("odrcoord", flag.ContinueOnError)
	command(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"cache-policy", "checkpoint", "crash-window", "faults", "halt-after",
		"heartbeat", "max-attempts", "metrics", "pool-bytes", "pprof", "seed", "shards",
		"spec", "trace", "verify", "windows", "worker", "workers"}
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
	for _, name := range []string{"chunk", "inprocess", "window", "out", "crash-after", "worker-metrics", "ingest-workers", "window-hours"} {
		fs := flag.NewFlagSet("odrcoord", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		command(fs)
		if err := fs.Parse([]string{"-" + name, "1"}); err == nil || !strings.Contains(err.Error(), "not defined: -"+name) {
			t.Errorf("-%s: Parse() = %v, want a usage error naming it", name, err)
		}
	}
	// -worker reads everything else from stdin.
	fs = flag.NewFlagSet("odrcoord", flag.ContinueOnError)
	body := command(fs)
	if err := fs.Parse([]string{"-worker", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := body(); err == nil || !strings.Contains(err.Error(), "no other flags") {
		t.Fatalf("-worker -seed 3: %v, want a refusal", err)
	}
}

// TestWorkerProtocol: the worker decodes exactly the request execRunner
// encodes, every field included, and rejects a request it cannot trust,
// naming the problem.
func TestWorkerProtocol(t *testing.T) {
	path, records := writeTrace(t)
	req := distrib.WorkerRequest{
		TracePath: path,
		Window:    distrib.Window{Offset: 100, Limit: 200},
		Spec: distrib.WorkerSpec{Seed: 9, Shards: 2, CachePolicy: "band", PoolBytes: 1 << 30,
			Faults: "transient=0.1,span=720h0m0s", Metrics: true},
		PartialPath: filepath.Join(t.TempDir(), "w.odrp"),
		TraceSHA256: strings.Repeat("ab", 32),
		StatePath:   filepath.Join(t.TempDir(), "state-00001.odrs"),
		CrashAfter:  12345,
	}
	cmd, err := execRunner{bin: "odrcoord"}.command(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cmd.Args, []string{"odrcoord", "-worker"}) {
		t.Fatalf("worker args = %v, want the request on stdin alone", cmd.Args)
	}
	got, err := decodeRequest(cmd.Stdin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("decoded %+v, encoded %+v", got, req)
	}

	outside := req
	outside.Window = distrib.Window{Offset: records - 10, Limit: 100}
	outside.CrashAfter = 0
	raw, err := json.Marshal(outside)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, body, want string }{
		{"unknown field", `{"trace_path": "t.bin", "chunk": 7}`, `unknown field "chunk"`},
		{"trailing garbage", `{"trace_path": "t.bin"} hb 1`, "trailing data"},
		{"window outside the trace", string(raw), "outside trace"},
	} {
		err := runWorker(context.Background(), strings.NewReader(tc.body), io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: runWorker() = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestExecWorkersMatchSingleProcess drives the coordinator over real
// worker processes — this test binary re-exec'ed as odrcoord -worker —
// with one worker crashed mid-window, and requires the merged digest and
// metrics to be the single-process replay's.
func TestExecWorkersMatchSingleProcess(t *testing.T) {
	path, _ := writeTrace(t)
	t.Setenv(asCommand, "1")
	spec := distrib.WorkerSpec{Seed: 9, Shards: 2, Faults: "0.25", Metrics: true}
	co, err := distrib.New(distrib.Config{
		TracePath:     path,
		Workers:       2,
		Windows:       3,
		CheckpointDir: t.TempDir(),
		Spec:          spec,
		Runner:        execRunner{bin: os.Args[0]},
		CrashWindow:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := distrib.SingleProcess(path, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Digest() != ref.Digest() {
		t.Fatal("merged digest over worker processes differs from the single-process replay")
	}
	if merged.Metrics == nil || len(merged.Metrics.Snapshot().Counters) == 0 {
		t.Fatal("workers shipped no metrics although the spec asked for them")
	}
}

// TestSpecFileKeepsHorizon: a 30-day scenario file compiles to the same
// fault schedule under odrcoord -spec as under scenario -spec — 30 days
// of episodes, not the fault layer's one-week default.
func TestSpecFileKeepsHorizon(t *testing.T) {
	const body = `{"days": 30, "faults": "0.25", "naive": true, "seed": 5, "pool_bytes": 1000000}`
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	ws, _, err := loadSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	coordOpts, err := ws.ReplayOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	var s scenario.Spec
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatal(err)
	}
	scenOpts, err := s.Normalized().ReplayOptions()
	if err != nil {
		t.Fatal(err)
	}
	if coordOpts.Faults == nil || scenOpts.Faults == nil {
		t.Fatalf("faults not installed: odrcoord %v, scenario %v", coordOpts.Faults, scenOpts.Faults)
	}
	if *coordOpts.Faults != *scenOpts.Faults {
		t.Fatalf("odrcoord -spec compiles %#v, scenario -spec %#v", *coordOpts.Faults, *scenOpts.Faults)
	}
	if got := coordOpts.Faults.Span.Hours(); got != 30*24 {
		t.Fatalf("fault schedule spans %vh, want the scenario's 720h", got)
	}
}
