package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"odr/internal/trace"
	"odr/internal/workload"
)

// traceBuild is the trace-build workload: plan a trace, generate it with
// P workers straight into a bin file, read the file back and hash it,
// re-encode it as CSV, and drain the CSV. internal/workload and
// internal/trace do all the work; internal/replay does none.
type traceBuild struct {
	e        *env
	cfg      workload.Config
	wantHash string
	wantN    int
}

func (w *traceBuild) setup(ctx context.Context) error {
	w.cfg = workload.DefaultConfig(w.e.sc.BuildFiles, w.e.seed)
	// The reference is the sequential generator's hash; every iteration
	// generates in parallel and round-trips through a file, and must
	// come back to it.
	st, err := workload.GenerateStream(w.cfg, workload.DefaultStreamChunk)
	if err != nil {
		return err
	}
	w.wantHash, w.wantN, err = trace.HashWorkload(st.Requests())
	if err != nil {
		return err
	}
	if err := w.e.checkPin("trace-build", w.wantHash); err != nil {
		return err
	}
	_, err = w.one(ctx, nil, 0) // warm-up
	return err
}

func (w *traceBuild) teardown() {}

func (w *traceBuild) measure(ctx context.Context, seconds float64) (*measurement, error) {
	return iterate(ctx, w.e, seconds, selfUsage, w.wantHash, w.one)
}

func (w *traceBuild) traced(ctx context.Context, tr *tracer, parent int) (float64, map[string]float64, error) {
	return tracedOnce(ctx, tr, parent, w.one)
}

// one is a full iteration. A failed check fails every record of it.
func (w *traceBuild) one(ctx context.Context, tr *tracer, parent int) (sample, error) {
	binPath := filepath.Join(w.e.dir, "build.bin")
	csvPath := filepath.Join(w.e.dir, "build.csv")
	start := time.Now()

	sp := tr.start(parent, "workload.GenerateStream")
	st, err := workload.GenerateStream(w.cfg, workload.DefaultStreamChunk)
	tr.end(sp, 0)
	if err != nil {
		return sample{}, err
	}

	// Generation runs inside the encoder's pull loop; the summed child
	// span is the time the encoder waited for the generator.
	sp = tr.start(parent, "trace.WriteWorkloadBinStream")
	gen, done := tr.traceSource(st.RequestsWorkers(w.e.P), sp, "workload.RequestsWorkers")
	err = writeBin(binPath, gen)
	done()
	tr.end(sp, int64(w.wantN))
	if err != nil {
		return sample{}, err
	}

	sp = tr.start(parent, "trace.HashWorkload")
	hash, n, err := w.hashFile(binPath, tr, sp)
	tr.end(sp, int64(n))
	if err != nil {
		return sample{}, err
	}

	sp = tr.start(parent, "trace.WriteWorkloadCSVStream")
	err = w.binToCSV(binPath, csvPath, tr, sp)
	tr.end(sp, int64(n))
	if err != nil {
		return sample{}, err
	}

	sp = tr.start(parent, "trace.StreamWorkloadCSV")
	csvN, err := drainCSV(csvPath)
	tr.end(sp, int64(csvN))
	if err != nil {
		return sample{}, err
	}

	s := sample{wall: time.Since(start), records: int64(w.wantN), nominal: int64(w.e.sc.BuildNominal)}
	if hash != w.wantHash || n != w.wantN || csvN != w.wantN {
		fmt.Fprintf(w.e.log, "trace-build: check failed: hash %s/%d, csv %d records; want %s/%d\n",
			hash, n, csvN, w.wantHash, w.wantN)
		s.failed = s.records
	}
	return s, ctx.Err()
}

func (w *traceBuild) hashFile(path string, tr *tracer, parent int) (string, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	src, err := trace.StreamWorkloadBin(f)
	if err != nil {
		return "", 0, err
	}
	src, done := tr.traceSource(src, parent, "trace.StreamWorkloadBin")
	defer done()
	return trace.HashWorkload(src)
}

func (w *traceBuild) binToCSV(binPath, csvPath string, tr *tracer, parent int) error {
	src, _, closer, err := trace.OpenWorkloadFile(binPath)
	if err != nil {
		return err
	}
	defer closer.Close()
	src, done := tr.traceSource(src, parent, "trace.OpenWorkloadFile")
	defer done()
	out, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	if err := trace.WriteWorkloadCSVStream(bw, src); err != nil {
		out.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func drainCSV(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	src, err := trace.StreamWorkloadCSV(f)
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		if _, _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	return n, src.Err()
}
