package main

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
)

// TestFlagSurface pins the command's flags. The streaming chunk size and
// the generation worker count never changed the emitted trace and are
// constants now; spelling either is a usage error, not a silently ignored
// setting.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("wgen", flag.ContinueOnError)
	command(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if want := []string{"files", "format", "out", "seed", "unicom"}; !slices.Equal(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
	for _, name := range []string{"chunk", "gen-workers"} {
		fs := flag.NewFlagSet("wgen", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		command(fs)
		if err := fs.Parse([]string{"-" + name, "1"}); err == nil || !strings.Contains(err.Error(), "not defined: -"+name) {
			t.Errorf("-%s: Parse() = %v, want a usage error naming it", name, err)
		}
	}
}
