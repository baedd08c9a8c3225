package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
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

// asWrongWorker, set in a test binary's environment, makes the binary a
// worker that answers every request with a "done" line for another
// window.
const asWrongWorker = "ODRCOORD_TEST_AS_WRONG_WORKER"

// asStatsWorker, set in a test binary's environment, makes the binary a
// worker that answers every request with its value as the stats line
// ("-" for none) and "done 0,5".
const asStatsWorker = "ODRCOORD_TEST_AS_STATS_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(asCommand) == "1" {
		main()
		os.Exit(0)
	}
	if os.Getenv(asWrongWorker) == "1" {
		for sc := bufio.NewScanner(os.Stdin); sc.Scan(); {
			fmt.Println("hb 1\ndone 7,7")
		}
		os.Exit(0)
	}
	if stats, ok := os.LookupEnv(asStatsWorker); ok {
		for sc := bufio.NewScanner(os.Stdin); sc.Scan(); {
			if stats != "-" {
				fmt.Println(stats)
			}
			fmt.Println("done 0,5")
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeTrace writes a small bin trace and returns its path and record
// count.
func writeTrace(t *testing.T) (string, int64) {
	t.Helper()
	return writeTraceOf(t, 300)
}

// writeTraceOf writes the bin trace of a population of files.
func writeTraceOf(t *testing.T, files int) (string, int64) {
	t.Helper()
	st, err := workload.GenerateStream(workload.DefaultConfig(files, 9), 0)
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

// TestWorkerProtocol: the worker decodes exactly the requests execRunner
// encodes, every field included, one after another; it serves a stream of
// requests with one "done" line each and partials equal to one-shot
// workers'; and it rejects a request it cannot trust, naming the problem
// — a malformed or unknown-field request after a good one fails after the
// good one's "done".
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
	line, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	reqs := newRequestStream(bytes.NewReader(slices.Concat(line, line)))
	for n := 1; n <= 2; n++ {
		got, err := reqs.next()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("request %d: decoded %+v, encoded %+v", n, got, req)
		}
	}
	if _, err := reqs.next(); err != io.EOF {
		t.Fatalf("after the last request: %v, want io.EOF", err)
	}

	// Two windows on one stdin: two "done" lines, and partials equal to
	// two one-shot workers' but for the wall time each records.
	dir := t.TempDir()
	spec := distrib.WorkerSpec{Seed: 9, Shards: 2, CachePolicy: "band", PoolBytes: 1 << 20}
	windows := []distrib.Window{{Offset: 100, Limit: 200}, {Offset: records - 150, Limit: 150}}
	var stream []byte
	var oneShot []distrib.WorkerRequest
	for k, win := range windows {
		r := distrib.WorkerRequest{TracePath: path, Window: win, Spec: spec,
			PartialPath: filepath.Join(dir, fmt.Sprintf("stream-%d.odrp", k))}
		line, err := encodeRequest(r)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, line...)
		r.PartialPath = filepath.Join(dir, fmt.Sprintf("one-shot-%d.odrp", k))
		oneShot = append(oneShot, r)
	}
	var out bytes.Buffer
	if err := runWorker(context.Background(), bytes.NewReader(stream), &out); err != nil {
		t.Fatal(err)
	}
	if got, want := doneLines(out.String()), []string{"done 100,200", fmt.Sprintf("done %d,150", records-150)}; !slices.Equal(got, want) {
		t.Fatalf("stdout says %q, want %q", got, want)
	}
	for k, r := range oneShot {
		if err := distrib.RunWorker(context.Background(), r, nil); err != nil {
			t.Fatal(err)
		}
		if a, b := partialBytes(t, filepath.Join(dir, fmt.Sprintf("stream-%d.odrp", k))), partialBytes(t, r.PartialPath); !bytes.Equal(a, b) {
			t.Fatalf("window %v: the stream's partial differs from a one-shot worker's", r.Window)
		}
	}

	first := string(stream[:bytes.IndexByte(stream, '\n')+1])
	other := oneShot[1]
	other.TracePath = filepath.Join(t.TempDir(), "other.bin")
	otherSHA := oneShot[1]
	otherSHA.TraceSHA256 = strings.Repeat("cd", 32)
	outside := oneShot[0]
	outside.Window = distrib.Window{Offset: records - 10, Limit: 100}
	for _, tc := range []struct {
		name, body, want string
		done             int
	}{
		{"empty", "", "no request", 0},
		{"unknown field", `{"trace_path": "t.bin", "chunk": 7}`, `unknown field "chunk"`, 0},
		{"window outside the trace", string(mustEncode(t, outside)), "outside trace", 0},
		{"malformed next request", first + ` hb 1`, "request 2 on stdin: invalid character", 1},
		{"unknown field in the next request", first + `{"trace_path": "t.bin", "chunk": 7}`, `request 2 on stdin: json: unknown field "chunk"`, 1},
		{"next request for another trace", first + string(mustEncode(t, other)), "trace_path", 1},
		{"next request for another trace hash", first + string(mustEncode(t, otherSHA)), "trace_sha256", 1},
	} {
		var out bytes.Buffer
		err := runWorker(context.Background(), strings.NewReader(tc.body), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: runWorker() = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if got := len(doneLines(out.String())); got != tc.done {
			t.Errorf("%s: %d done lines before the error, want %d", tc.name, got, tc.done)
		}
	}
}

// mustEncode is encodeRequest for a request that must encode.
func mustEncode(t *testing.T, req distrib.WorkerRequest) []byte {
	t.Helper()
	line, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// doneLines returns a worker's "done" lines.
func doneLines(stdout string) []string {
	var done []string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "done ") {
			done = append(done, line)
		}
	}
	return done
}

// partialBytes reads a partial and re-encodes it with its wall time
// zeroed: the bytes of everything the replay decided.
func partialBytes(t *testing.T, path string) []byte {
	t.Helper()
	p, err := distrib.ReadPartial(path)
	if err != nil {
		t.Fatal(err)
	}
	p.Seconds = 0
	out := filepath.Join(t.TempDir(), "zeroed.odrp")
	if err := distrib.WritePartial(out, p); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestExecWorkersMatchSingleProcess drives the coordinator over real
// worker processes — this test binary re-exec'ed as odrcoord -worker —
// with one worker crashed mid-window, and requires the merged digest and
// metrics to be the single-process replay's. Six windows run in two
// processes and one respawn: the crashed process is replaced, never
// reused, the others serve window after window, and Close reaps them all.
func TestExecWorkersMatchSingleProcess(t *testing.T) {
	path, _ := writeTrace(t)
	t.Setenv(asCommand, "1")
	spec := distrib.WorkerSpec{Seed: 9, Shards: 2, Faults: "0.25", Metrics: true}
	runner := &execRunner{bin: os.Args[0]}
	co, err := distrib.New(distrib.Config{
		TracePath:     path,
		Workers:       2,
		Windows:       6,
		CheckpointDir: t.TempDir(),
		Spec:          spec,
		Runner:        runner,
		CrashWindow:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := co.Run(context.Background())
	if cerr := runner.Close(); cerr != nil {
		t.Fatalf("Close: %v", cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := procStats{Spawned: 3, Respawned: 1, Reaped: 3, Windows: 6}
	if got := runner.Stats(); got != want {
		t.Fatalf("worker processes: %+v, want %+v", got, want)
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
	if err := runner.Run(context.Background(), distrib.WorkerRequest{}, func(int64) {}); err == nil {
		t.Fatal("Run after Close started a window")
	}
}

// TestFailedRunReapsStartedProcesses: the coordinator starts its worker
// processes before it opens the trace, so a run that fails before its
// first window — a missing trace, a checkpoint for another spec while the
// state pass runs — leaves processes that served nothing, and Close kills
// and reaps every one of them without reporting their exit.
func TestFailedRunReapsStartedProcesses(t *testing.T) {
	path, records := writeTrace(t)
	t.Setenv(asCommand, "1")
	sha, err := trace.SHA256File(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := distrib.WorkerSpec{Seed: 9, CachePolicy: "band", PoolBytes: 64 << 20}
	foreign := t.TempDir()
	other := spec
	other.Seed++
	if err := distrib.SaveManifest(filepath.Join(foreign, distrib.ManifestName),
		distrib.NewManifest(path, sha, records, other, 4)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, trace, checkpoint, want string }{
		{"missing trace", filepath.Join(t.TempDir(), "missing.bin"), t.TempDir(), "no such file"},
		{"foreign checkpoint", path, foreign, "manifest: spec"},
	} {
		runner := &execRunner{bin: os.Args[0]}
		co, err := distrib.New(distrib.Config{TracePath: tc.trace, Workers: 2, Windows: 4,
			CheckpointDir: tc.checkpoint, Spec: spec, Runner: runner})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := co.Run(context.Background()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Run = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if err := runner.Close(); err != nil {
			t.Fatalf("%s: Close = %v", tc.name, err)
		}
		if got, want := runner.Stats(), (procStats{Spawned: 2, Reaped: 2}); got != want {
			t.Fatalf("%s: worker processes %+v, want %+v (both started, both reaped)", tc.name, got, want)
		}
	}
}

// TestExecRunnerCancel: a canceled attempt kills its process and reaps
// it, the next Run spawns a fresh one, and a process that names another
// window in its "done" line is refused and discarded.
func TestExecRunnerCancel(t *testing.T) {
	path, records := writeTraceOf(t, 1000)
	t.Setenv(asCommand, "1")
	dir := t.TempDir()
	req := func(name string, win distrib.Window) distrib.WorkerRequest {
		return distrib.WorkerRequest{TracePath: path, Window: win, Spec: distrib.WorkerSpec{Seed: 9},
			PartialPath: filepath.Join(dir, name)}
	}
	whole := distrib.Window{Offset: 0, Limit: records}
	runner := &execRunner{bin: os.Args[0]}
	defer runner.Close()
	if err := runner.Run(context.Background(), req("a.odrp", whole), func(int64) {}); err != nil {
		t.Fatal(err)
	}
	// Cancel at the first heartbeat: the window is longer than one
	// heartbeat's worth of records.
	if records < 2048 {
		t.Fatalf("a trace of %d records is too short to beat before it ends", records)
	}
	ctx, cancel := context.WithCancel(context.Background())
	err := runner.Run(ctx, req("b.odrp", whole), func(int64) { cancel() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run = %v, want context.Canceled", err)
	}
	if got, want := runner.Stats(), (procStats{Spawned: 1, Reaped: 1, Windows: 1, discarded: 1}); got != want {
		t.Fatalf("after the cancel: %+v, want %+v (the process killed and reaped)", got, want)
	}
	if err := runner.Run(context.Background(), req("c.odrp", whole), func(int64) {}); err != nil {
		t.Fatal(err)
	}
	if got, want := runner.Stats(), (procStats{Spawned: 2, Respawned: 1, Reaped: 1, Windows: 2}); got != want {
		t.Fatalf("after the next Run: %+v, want %+v (a fresh process)", got, want)
	}
	if err := runner.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runner.Stats(); got.Reaped != got.Spawned {
		t.Fatalf("after Close: %d of %d processes reaped", got.Reaped, got.Spawned)
	}

	t.Setenv(asCommand, "")
	t.Setenv(asWrongWorker, "1")
	wrong := &execRunner{bin: os.Args[0]}
	err = wrong.Run(context.Background(), req("d.odrp", distrib.Window{Offset: 0, Limit: 5}), func(int64) {})
	if err == nil || !strings.Contains(err.Error(), `answered "done 7,7" to the request for "done 0,5"`) {
		t.Fatalf("a done line for another window: Run = %v, want a refusal naming both", err)
	}
	if err := wrong.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := wrong.Stats(), (procStats{Spawned: 1, Reaped: 1, discarded: 1}); got != want {
		t.Fatalf("after a wrong done line: %+v, want %+v (the process discarded)", got, want)
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

// TestWorkerProcs: the share is the coordinator's GOMAXPROCS split evenly
// among the workers, at least 1 — no more threads than cores once there
// are at most as many workers as cores, and no core left idle that a
// larger share would have used.
func TestWorkerProcs(t *testing.T) {
	for procs := 1; procs <= 64; procs++ {
		if got := workerProcs(procs, 0); got != procs {
			t.Fatalf("workerProcs(%d, 0) = %d, want %d (0 workers count as 1)", procs, got, procs)
		}
		for workers := 1; workers <= procs+3; workers++ {
			got := workerProcs(procs, workers)
			switch {
			case got < 1:
				t.Fatalf("workerProcs(%d, %d) = %d, want at least 1", procs, workers, got)
			case workers > procs && got != 1:
				t.Fatalf("workerProcs(%d, %d) = %d, want 1 with more workers than Ps", procs, workers, got)
			case workers <= procs && (got*workers > procs || (got+1)*workers <= procs):
				t.Fatalf("workerProcs(%d, %d) = %d: %d workers at that share use %d of %d Ps", procs, workers, got, workers, got*workers, procs)
			}
		}
	}
}

// TestWorkerRunsAtItsShare: a worker process a runner with a share spawns
// runs at that GOMAXPROCS, and its stats line reports the window's stages
// and the process's peak RSS.
func TestWorkerRunsAtItsShare(t *testing.T) {
	path, records := writeTrace(t)
	t.Setenv(asCommand, "1")
	runner := &execRunner{bin: os.Args[0], procs: 3}
	defer runner.Close()
	dir := t.TempDir()
	for k, win := range []distrib.Window{{Offset: 0, Limit: records / 2}, {Offset: records / 2, Limit: records - records/2}} {
		req := distrib.WorkerRequest{TracePath: path, Window: win, Spec: distrib.WorkerSpec{Seed: 9, CachePolicy: "band", PoolBytes: 1 << 20},
			PartialPath: filepath.Join(dir, fmt.Sprintf("w%d.odrp", k))}
		if err := runner.Run(context.Background(), req, func(int64) {}); err != nil {
			t.Fatal(err)
		}
	}
	ws := runner.Windows()
	if len(ws) != 2 {
		t.Fatalf("%d window stats, want 2", len(ws))
	}
	for k, w := range ws {
		if w.Procs != 3 {
			t.Errorf("window %d ran at GOMAXPROCS %d, want the runner's share 3", k, w.Procs)
		}
		if w.Restore <= 0 || w.Replay <= 0 || w.Write <= 0 || w.PeakRSS <= 0 {
			t.Errorf("window %d: stats %+v, want every stage timed and the peak RSS", k, w)
		}
	}
	if got := runner.Stats(); got.Spawned != 1 {
		t.Fatalf("%d processes spawned for two windows, want 1", got.Spawned)
	}
}

// TestCoordinatorSplitsItsGOMAXPROCS: an explicit GOMAXPROCS in the
// coordinator's environment is the base its workers' share divides, and
// the summary prints the share beside the process counts and the
// workers' stage medians beside the coordinator's stages and peak RSS.
func TestCoordinatorSplitsItsGOMAXPROCS(t *testing.T) {
	path, _ := writeTrace(t)
	for _, tc := range []struct {
		env     string
		workers int
		share   int
	}{{"6", 2, 3}, {"5", 2, 2}, {"3", 4, 1}} {
		cmd := exec.Command(os.Args[0], "-trace", path, "-checkpoint", t.TempDir(),
			"-workers", strconv.Itoa(tc.workers), "-windows", strconv.Itoa(tc.workers))
		cmd.Env = append(os.Environ(), asCommand+"=1", "GOMAXPROCS="+tc.env)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%s -workers %d: %v\n%s", tc.env, tc.workers, err, out)
		}
		want := fmt.Sprintf("%d windows, 0 respawned, GOMAXPROCS %d each\n", tc.workers, tc.share)
		if !strings.Contains(string(out), want) {
			t.Errorf("GOMAXPROCS=%s -workers %d: no %q in\n%s", tc.env, tc.workers, want, out)
		}
		if !regexp.MustCompile(`(?m)^worker windows: +restore [0-9.]+ms, setup [0-9.]+ms, replay [0-9.]+ms, encode\+write\+fsync [0-9.]+ms \(medians of [0-9]+\), peak RSS [0-9.]+ MB$`).Match(out) {
			t.Errorf("GOMAXPROCS=%s -workers %d: no worker windows line in\n%s", tc.env, tc.workers, out)
		}
		if !regexp.MustCompile(`(?m)^coordinator: +trace hash [0-9.]+ms, state pass [0-9.]+ms, merge\+digest [0-9.]+ms, peak RSS [0-9.]*[1-9][0-9.]* MB$`).Match(out) {
			t.Errorf("GOMAXPROCS=%s -workers %d: no coordinator line with its peak RSS in\n%s", tc.env, tc.workers, out)
		}
	}
}

// TestMalformedStatsFailsWindow: a stats line that is not exactly what a
// worker prints, or none before "done", fails the window and discards the
// process, as a wrong "done" line does.
func TestMalformedStatsFailsWindow(t *testing.T) {
	good := windowStats{WindowStages: distrib.WindowStages{Restore: 1, Setup: 5, Replay: 2, Write: 3}, PeakRSS: 4 << 20, Procs: 1}.String()
	if _, err := parseWindowStats(good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ stats, want string }{
		{"stats ", "malformed stats line"},
		{"-", "no stats line"},
		{"stats restore_ns=1", "malformed stats line"},
		{good + " extra", "malformed stats line"},
		{strings.Replace(good, "restore_ns=1", "restore_ns=-1", 1), "malformed stats line"},
		{strings.Replace(good, "restore_ns=1", "restore_ns=+1", 1), "malformed stats line"},
		{strings.Replace(good, "gomaxprocs=1", "gomaxprocs=0", 1), "malformed stats line"},
		{strings.Replace(good, "setup_ns=5", "setup_ns=-5", 1), "malformed stats line"},
		{strings.Replace(good, " setup_ns=5", "", 1), "malformed stats line"},
		{strings.Replace(good, "setup_ns=5 replay_ns=2", "replay_ns=2 setup_ns=5", 1), "malformed stats line"},
	} {
		t.Setenv(asStatsWorker, tc.stats)
		runner := &execRunner{bin: os.Args[0]}
		req := distrib.WorkerRequest{Window: distrib.Window{Offset: 0, Limit: 5}}
		err := runner.Run(context.Background(), req, func(int64) {})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("stats line %q: Run = %v, want an error containing %q", tc.stats, err, tc.want)
		}
		if got := runner.Stats(); got.discarded != 1 || len(runner.Windows()) != 0 {
			t.Errorf("stats line %q: %+v, %d windows kept; want the process discarded and no window", tc.stats, got, len(runner.Windows()))
		}
		runner.Close()
	}
	t.Setenv(asStatsWorker, good)
	runner := &execRunner{bin: os.Args[0]}
	defer runner.Close()
	if err := runner.Run(context.Background(), distrib.WorkerRequest{Window: distrib.Window{Offset: 0, Limit: 5}}, func(int64) {}); err != nil {
		t.Fatalf("a well-formed stats line: %v", err)
	}
	if ws := runner.Windows(); len(ws) != 1 || ws[0].String() != good {
		t.Fatalf("kept %v, want the one stats line %q", ws, good)
	}
}
