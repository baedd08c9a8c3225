package main

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
)

// TestFlagSurface pins the command's flags: every accepted flag reaches
// code. The engine batch size, the generation worker count and the cell
// parallelism never changed a result and are gone; the ingest block
// configures the live server, which scenario never starts. Spelling any
// of those is a usage error, not a silently ignored setting.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	command(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"cache-policy", "days", "fault-grid", "faults", "files", "metrics",
		"naive", "policies", "pool-bytes", "pool-divisor", "pprof", "profile", "profiles",
		"sample", "seed", "shards", "spec", "timeline-dir", "window"}
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
	for _, name := range []string{"chunk", "gen-workers", "parallel", "ingest-workers", "admit-rate"} {
		fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		command(fs)
		if err := fs.Parse([]string{"-" + name, "1"}); err == nil || !strings.Contains(err.Error(), "not defined: -"+name) {
			t.Errorf("-%s: Parse() = %v, want a usage error naming it", name, err)
		}
	}
}
