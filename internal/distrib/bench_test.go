package distrib

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"odr/internal/trace"
	"odr/internal/workload"
)

// BenchmarkWorkerWindows is one worker process's share of a coordinated
// band run with faults: one Worker opens a generated 60,000-record trace
// and serves every window of an 8-window plan from the state files the
// coordinator's pass writes, as cmd/odrcoord's worker does. Each iteration
// opens a fresh Worker, so what a process builds once per trace and spec
// is paid once per iteration, beside each window's own replay.
func BenchmarkWorkerWindows(b *testing.B) {
	const files, records, windows = 10000, 60000, 8
	tr, err := workload.Generate(workload.DefaultConfig(files, 7))
	if err != nil {
		b.Fatal(err)
	}
	if len(tr.Requests) < records {
		b.Fatalf("trace has %d records, want %d", len(tr.Requests), records)
	}
	dir := b.TempDir()
	path := filepath.Join(dir, "trace.bin")
	out, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	w := bufio.NewWriter(out)
	if err := trace.WriteWorkloadBinStream(w, workload.NewSliceSource(tr.Requests[:records])); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := out.Close(); err != nil {
		b.Fatal(err)
	}
	sha, err := trace.SHA256File(path)
	if err != nil {
		b.Fatal(err)
	}
	bin, err := trace.OpenBin(path)
	if err != nil {
		b.Fatal(err)
	}
	var pop int64
	for _, f := range bin.Census().Files {
		pop += f.Size
	}
	spec := WorkerSpec{Seed: 7, Shards: 1, CachePolicy: "band", PoolBytes: pop / 12, Faults: "0.25"}
	plan := PlanWindows(records, windows)
	bases := make([]int, len(plan))
	reqs := make([]WorkerRequest, len(plan))
	for k, win := range plan {
		bases[k] = int(win.Offset)
		reqs[k] = WorkerRequest{
			TracePath: path, Window: win, Spec: spec, TraceSHA256: sha,
			PartialPath: filepath.Join(dir, "window-"+strconv.Itoa(k)+".odrp"),
			StatePath:   filepath.Join(dir, stateName(k)),
		}
	}
	fp, k := spec.Fingerprint(), 0
	err = statePass(bin, spec, bases, &meter{ctx: context.Background()}, func(base int, state []byte) error {
		hdr := stateHeader{TraceSHA256: sha, Spec: fp, Base: int64(base)}
		err := writeState(reqs[k].StatePath, hdr, state)
		k++
		return err
	})
	bin.Close()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wk, err := OpenWorker(reqs[0])
		if err != nil {
			b.Fatal(err)
		}
		for _, req := range reqs {
			if _, err := wk.Run(context.Background(), req, nil); err != nil {
				b.Fatal(err)
			}
		}
		wk.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
