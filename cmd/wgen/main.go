// Command wgen synthesizes offline-downloading workload traces calibrated
// to §3 of the paper and writes them as CSV, JSON Lines, or the seekable
// binary format.
//
// Usage:
//
//	wgen [-files N] [-seed S] [-format csv|jsonl|bin] [-out PATH]
//	     [-unicom N]
//
// The trace streams from the generator to the writer in chunks of
// workload.DefaultStreamChunk requests, so memory stays bounded by the
// chunk size (plus the resident file/user populations) no matter how
// large -files is. Generation runs on GOMAXPROCS goroutines ahead of the
// writer, and so does the plan's counting pass; with -format csv the rows
// are formatted on GOMAXPROCS goroutines too and written in order. The
// emitted trace is byte-identical to sequential generation.
//
// The bin format is the paper-scale one: records that name their file
// and user by first-appearance ordinal, in CRC-framed chunks closed by a
// table of the trace's files and users and a record-count trailer,
// decodable without allocation and seekable by record offset (see
// internal/trace).
//
// With -unicom N it emits the §5.1 replay sample (N Unicom requests with
// reported bandwidth) instead of the full trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"odr/internal/trace"
	"odr/internal/workload"
)

func main() {
	body := command(flag.CommandLine)
	flag.Parse()
	if err := body(); err != nil {
		fmt.Fprintln(os.Stderr, "wgen:", err)
		os.Exit(1)
	}
}

// command registers wgen's flags on fs and returns the command body, to
// be called once fs has parsed the arguments.
func command(fs *flag.FlagSet) func() error {
	files := fs.Int("files", 20000, "unique files in the trace (paper: 563517)")
	seed := fs.Uint64("seed", 1, "random seed")
	format := fs.String("format", "csv", "output format: csv, jsonl, or bin")
	out := fs.String("out", "-", "output path (- for stdout)")
	unicom := fs.Int("unicom", 0, "emit only an N-request Unicom replay sample")
	return func() error { return run(*files, *seed, *format, *out, *unicom) }
}

func run(files int, seed uint64, format, out string, unicom int) error {
	st, err := workload.GenerateStream(workload.DefaultConfig(files, seed), workload.DefaultStreamChunk)
	if err != nil {
		return err
	}
	src := st.RequestsWorkers(0)
	if unicom > 0 {
		sample, err := workload.UnicomSampleSource(src, unicom, seed)
		if err != nil {
			return err
		}
		src = workload.NewSliceSource(sample)
	}

	var w io.Writer = os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return trace.WriteWorkloadStream(w, format, src)
}
