package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odr/internal/replay"
	"odr/internal/scenario"
	"odr/internal/trace"
	"odr/internal/workload"
)

// runCLI runs the command body over a generated week and fails the test
// if it returns an error.
func runCLI(t *testing.T, shards, chunk int, tasksPath string, common *scenario.Common) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, err := runCLITrace(t, shards, chunk, tasksPath, "", common)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr)
	}
	return stdout, stderr
}

// runCLITrace runs the command body with stdout and stderr captured to
// files; an empty tracePath generates the week.
func runCLITrace(t *testing.T, shards, chunk int, tasksPath, tracePath string,
	common *scenario.Common) (stdout, stderr string, err error) {
	t.Helper()
	dir := t.TempDir()
	capture := func(name string, std **os.File) func() string {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		saved := *std
		*std = f
		return func() string {
			*std = saved
			f.Close()
			data, err := os.ReadFile(f.Name())
			if err != nil {
				t.Fatal(err)
			}
			return string(data)
		}
	}
	out := capture("stdout", &os.Stdout)
	errOut := capture("stderr", &os.Stderr)
	err = run(1500, 150, 9, shards, chunk, tasksPath, tracePath, false, common)
	return out(), errOut(), err
}

// TestChunkFlagReachesEngine pins the -chunk wiring end to end: the
// engine publishes its effective batch size as a gauge, so the -metrics
// dump must echo the flag, and the summary must not depend on it.
func TestChunkFlagReachesEngine(t *testing.T) {
	var snap struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	ref, dump := runCLI(t, 1, 0, "", &scenario.Common{Metrics: "json"})
	if err := json.Unmarshal([]byte(dump), &snap); err != nil {
		t.Fatalf("metrics dump is not JSON: %v\n%s", err, dump)
	}
	if got := snap.Gauges[replay.MetricStreamChunk]; got != replay.DefaultStreamChunk {
		t.Fatalf("-chunk 0: chunk gauge = %d, want the default %d", got, replay.DefaultStreamChunk)
	}

	got, dump := runCLI(t, 3, 7, "", &scenario.Common{Metrics: "json"})
	if err := json.Unmarshal([]byte(dump), &snap); err != nil {
		t.Fatalf("metrics dump is not JSON: %v\n%s", err, dump)
	}
	if v := snap.Gauges[replay.MetricStreamChunk]; v != 7 {
		t.Fatalf("-chunk 7 never reached the engine: chunk gauge = %d", v)
	}
	dropEngine := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "engine:") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if dropEngine(got) != dropEngine(ref) {
		t.Fatalf("summary changed with -shards 3 -chunk 7:\n--- shards=1 chunk=0\n%s\n--- shards=3 chunk=7\n%s", ref, got)
	}
}

// TestTasksDumpSharesTheOnePass: -tasks is the only mode that keeps the
// request log, and it rides the same pass that draws the sample — the
// summary is unchanged and the week's task records land in the file.
func TestTasksDumpSharesTheOnePass(t *testing.T) {
	ref, _ := runCLI(t, 2, 0, "", &scenario.Common{})
	path := filepath.Join(t.TempDir(), "tasks.jsonl")
	got, _ := runCLI(t, 2, 0, path, &scenario.Common{})
	if !strings.HasPrefix(got, ref) {
		t.Fatalf("-tasks changed the replay summary:\n--- without\n%s\n--- with\n%s", ref, got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records := strings.Count(string(data), "\n")
	if records == 0 {
		t.Fatal("-tasks wrote no task records")
	}
	var files, users, requests, sample int
	if _, err := fmt.Sscanf(ref, "synthetic week: %d files, %d users, %d requests; replay sample: %d",
		&files, &users, &requests, &sample); err != nil {
		t.Fatalf("summary header unparseable: %v\n%s", err, ref)
	}
	if records != requests {
		t.Fatalf("-tasks wrote %d records for a %d-request week", records, requests)
	}
}

// TestTasksDumpNeedsALosslessTrace: csv and jsonl traces zero AccessBW for
// users who never reported it, which used to panic the week simulator
// ("sim: schedule … before now"). The command now refuses up front and
// points at the bin format — but says nothing of the sort when the trace
// already is bin, which simply works.
func TestTasksDumpNeedsALosslessTrace(t *testing.T) {
	st, err := workload.GenerateStream(workload.DefaultConfig(300, 9), 0)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Collect(st.Requests())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(format string) string {
		path := filepath.Join(dir, "week."+format)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := trace.WriteWorkloadStream(f, format, workload.NewSliceSource(reqs)); err != nil {
			t.Fatal(err)
		}
		return path
	}
	tasks := filepath.Join(dir, "tasks.jsonl")
	for _, format := range []string{"csv", "jsonl"} {
		path := write(format)
		_, _, err := runCLITrace(t, 2, 0, tasks, path, &scenario.Common{})
		if err == nil {
			t.Fatalf("-trace week.%s -tasks ran; want a refusal", format)
		}
		for _, want := range []string{format + " trace", "-format bin"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s refusal %q does not mention %q", format, err, want)
			}
		}
		// Without -tasks the same trace replays fine.
		if _, _, err := runCLITrace(t, 2, 0, "", path, &scenario.Common{}); err != nil {
			t.Fatalf("-trace week.%s without -tasks: %v", format, err)
		}
	}
	stdout, _, err := runCLITrace(t, 2, 0, tasks, write("bin"), &scenario.Common{})
	if err != nil {
		t.Fatalf("-trace week.bin -tasks: %v", err)
	}
	if !strings.Contains(stdout, "task records to "+tasks) {
		t.Fatalf("bin trace wrote no task records:\n%s", stdout)
	}
}

// TestFlagSurface: a flag the command accepts must reach code. The
// ingest block configures the live server's batched decide pipeline,
// which replay never starts, so spelling one of those flags here is a
// usage error rather than a silently ignored setting.
func TestFlagSurface(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-gen-workers", "2", "-faults", "0.25", "-pprof", ":0"}, ""},
		{[]string{"-ingest-workers", "1"}, "-ingest-workers"},
		{[]string{"-ingest-queue", "64"}, "-ingest-queue"},
		{[]string{"-ingest-batch", "8"}, "-ingest-batch"},
		{[]string{"-admit-rate", "50"}, "-admit-rate"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("replay", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		command(fs)
		err := fs.Parse(c.args)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%v: %v", c.args, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), "not defined: "+c.wantErr)):
			t.Errorf("%v: Parse() = %v, want a usage error naming %s", c.args, err, c.wantErr)
		}
	}
}
