package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"odr/internal/trace"
	"odr/internal/workload"
)

// runArgs parses args the way main does — a small generated week unless
// args override it — and runs the command body with stdout and stderr
// captured to files.
func runArgs(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	body := command(fs)
	if err := fs.Parse(append([]string{"-files", "1500", "-sample", "150", "-seed", "9"}, args...)); err != nil {
		t.Fatal(err)
	}
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
	err = body()
	return out(), errOut(), err
}

// mustRun is runArgs for runs that must succeed.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	stdout, stderr, err := runArgs(t, args...)
	if err != nil {
		t.Fatalf("%v: %v\nstderr:\n%s", args, err, stderr)
	}
	return stdout
}

// dropEngine removes the summary's engine line, the one line that names
// the shard count.
func dropEngine(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "engine:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestTasksDumpSharesTheOnePass: -tasks is the only mode that keeps the
// request log, and it rides the same pass that draws the sample — the
// summary is unchanged and the week's task records land in the file. The
// summary does not depend on -shards either.
func TestTasksDumpSharesTheOnePass(t *testing.T) {
	ref := mustRun(t, "-shards", "1")
	path := filepath.Join(t.TempDir(), "tasks.jsonl")
	for _, args := range [][]string{
		{"-shards", "3"},
		{"-shards", "2", "-tasks", path},
	} {
		if got := mustRun(t, args...); !strings.HasPrefix(dropEngine(got), dropEngine(ref)) {
			t.Fatalf("%v changed the replay summary:\n--- -shards 1\n%s\n--- %v\n%s", args, ref, args, got)
		}
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

// writeTrace writes the seed-9 week over files files in format to dir.
func writeTrace(t *testing.T, dir string, files int, format string) string {
	t.Helper()
	st, err := workload.GenerateStream(workload.DefaultConfig(files, 9), 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "week."+format)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteWorkloadStream(f, format, st.Requests()); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTasksDumpNeedsALosslessTrace: csv and jsonl traces zero AccessBW for
// users who never reported it, which used to panic the week simulator
// ("sim: schedule … before now"). The command now refuses up front and
// points at the bin format — but says nothing of the sort when the trace
// already is bin, which simply works.
func TestTasksDumpNeedsALosslessTrace(t *testing.T) {
	dir := t.TempDir()
	tasks := filepath.Join(dir, "tasks.jsonl")
	for _, format := range []string{"csv", "jsonl"} {
		path := writeTrace(t, dir, 300, format)
		_, _, err := runArgs(t, "-shards", "2", "-tasks", tasks, "-trace", path)
		if err == nil {
			t.Fatalf("-trace week.%s -tasks ran; want a refusal", format)
		}
		for _, want := range []string{format + " trace", "-format bin"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s refusal %q does not mention %q", format, err, want)
			}
		}
		// Without -tasks the same trace replays fine.
		mustRun(t, "-shards", "2", "-trace", path)
	}
	stdout := mustRun(t, "-shards", "2", "-tasks", tasks, "-trace", writeTrace(t, dir, 300, "bin"))
	if !strings.Contains(stdout, "task records to "+tasks) {
		t.Fatalf("bin trace wrote no task records:\n%s", stdout)
	}
}

// TestEmptyTraceIsAnError: a trace with no records, in any format, has no
// population to size the replay's cloud from. The command refuses it with
// an error naming the file instead of panicking in the pool's constructor.
func TestEmptyTraceIsAnError(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"bin", "csv", "jsonl"} {
		path := filepath.Join(dir, "empty."+format)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteWorkloadStream(f, format, workload.NewSliceSource(nil)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		_, _, err = runArgs(t, "-trace", path)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "no records") {
			t.Errorf("-trace %s = %v, want an error naming the trace and saying it holds no records", path, err)
		}
	}
}

// TestTraceTasksDumpIgnoresFiles: with -trace the population comes from
// the trace's census, so the week simulator's cloud must be sized from it
// too. -files describes the week the command would generate, not the one
// it read, and must not change the dump.
func TestTraceTasksDumpIgnoresFiles(t *testing.T) {
	dir := t.TempDir()
	path := writeTrace(t, dir, 300, "bin")
	dump := func(files string) []byte {
		out := filepath.Join(dir, "tasks-"+files+".jsonl")
		mustRun(t, "-trace", path, "-tasks", out, "-files", files)
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if small, large := dump("300"), dump("20000"); !bytes.Equal(small, large) {
		t.Fatalf("-trace -tasks dump depends on -files: %d bytes at -files 300, %d at -files 20000",
			len(small), len(large))
	}
}

// TestFlagSurface pins the command's flags: every accepted flag reaches
// code. The engine batch size and the generation worker count never
// changed a result and are constants now; the ingest block configures the
// live server's batched decide pipeline, which replay never starts.
// Spelling any of those is a usage error, not a silently ignored setting.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	command(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"cache-policy", "faults", "files", "metrics", "naive", "pool-bytes",
		"pprof", "sample", "seed", "shards", "tasks", "trace"}
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
	for _, name := range []string{"chunk", "gen-workers", "ingest-workers", "ingest-queue", "ingest-batch", "admit-rate"} {
		fs := flag.NewFlagSet("replay", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		command(fs)
		if err := fs.Parse([]string{"-" + name, "1"}); err == nil || !strings.Contains(err.Error(), "not defined: -"+name) {
			t.Errorf("-%s: Parse() = %v, want a usage error naming it", name, err)
		}
	}
}
