package experiments

import (
	"bufio"
	"os"
	"runtime"
	"time"

	"odr/internal/replay"
	"odr/internal/trace"
	"odr/internal/workload"
)

// paperScaleGenWorkers is the parallel-generation arm EXP-W races against
// the sequential reference. Four workers is enough to exercise the
// reorder buffer and the bucket hand-off on any machine; the digest
// contract holds for every count, so the specific value is not
// load-bearing.
const paperScaleGenWorkers = 4

// msTruncSource truncates request times to the millisecond precision
// every trace format stores, so replays fed from memory are comparable
// byte-for-byte with replays fed from a trace file.
type msTruncSource struct {
	src workload.RequestSource
}

func (s *msTruncSource) Next() (int, workload.Request, bool) {
	i, req, ok := s.src.Next()
	req.Time = req.Time.Truncate(time.Millisecond)
	return i, req, ok
}

func (s *msTruncSource) Err() error { return s.src.Err() }

// TotalRequests implements workload.Sizer by forwarding the wrapped
// source's count (0, "unknown", when it has none).
func (s *msTruncSource) TotalRequests() int {
	if sz, ok := s.src.(workload.Sizer); ok {
		return sz.TotalRequests()
	}
	return 0
}

// PaperScale is EXP-W: the paper-scale fast-path proof. At the lab's
// scale (run it with -files 563517 for the calibrated week: 4,084,417
// tasks over 783,944 users and 563,517 files) it
//
//  1. hashes the generated request stream twice — sequential generation
//     and paperScaleGenWorkers-way parallel generation — and requires the
//     digests to be byte-identical,
//  2. writes the week to a seekable bin trace file in one bounded-memory
//     streaming pass and requires the reopened file to hash back to the
//     generated digest (bin is lossless; csv/jsonl are not),
//  3. replays the full week three ways — straight from the trace file,
//     from the parallel generator stream, and from a materialized slice,
//     at different shard counts — and requires all three replay digests
//     to be byte-identical,
//
// reporting generation/encode/decode/replay throughput, steady-state
// allocations per replayed request, resident heap, and the per-window
// timeline of the trace-file replay. Every check lands in a metric (1 =
// pass) and the final verdict line, so scripted runs can grep for
// "EXPW verdict: PASS".
//
// EXP-W is deliberately not part of All(): at full scale it runs for
// minutes and writes a multi-hundred-MB temp file. Run it by ID.
func (l *Lab) PaperScale() *Report {
	r := newReport("EXPW", "Paper-scale fast path: parallel generation, bin trace format, full-week replay")
	pass := true
	fail := func(format string, args ...any) {
		pass = false
		r.addf("FAIL: "+format, args...)
	}

	st, err := workload.GenerateStream(
		workload.DefaultConfig(l.cfg.NumFiles, l.cfg.Seed), workload.DefaultStreamChunk)
	if err != nil {
		panic(err) // config is validated in NewLab; this is a bug
	}
	r.addf("workload: %d files, %d users, %d requests over %v",
		len(st.Files), len(st.Users), st.TotalRequests(), st.Span)
	r.metric("files", float64(len(st.Files)), -1)
	r.metric("users", float64(len(st.Users)), -1)
	r.metric("requests", float64(st.TotalRequests()), -1)

	// 1. Generation digests: sequential vs parallel, byte-for-byte. The
	// hash is over the canonical bin record encoding, so it covers every
	// field a trace file stores.
	start := time.Now()
	seqHash, seqN, err := trace.HashWorkload(st.Requests())
	if err != nil {
		panic(err)
	}
	seqRate := float64(seqN) / time.Since(start).Seconds()
	start = time.Now()
	parHash, parN, err := trace.HashWorkload(st.RequestsWorkers(paperScaleGenWorkers))
	if err != nil {
		panic(err)
	}
	parRate := float64(parN) / time.Since(start).Seconds()
	r.addf("generate: %.0f req/s sequential, %.0f req/s with %d workers (GOMAXPROCS %d)",
		seqRate, parRate, paperScaleGenWorkers, runtime.GOMAXPROCS(0))
	r.metric("gen_seq_reqs_per_s", seqRate, -1)
	r.metric("gen_par_reqs_per_s", parRate, -1)
	if parHash != seqHash || parN != seqN {
		fail("parallel generation diverged: %s/%d vs %s/%d", parHash, parN, seqHash, seqN)
	} else {
		r.addf("generation digest %s (%d records): workers=1 == workers=%d",
			seqHash[:16], seqN, paperScaleGenWorkers)
	}
	r.metric("gen_digest_match", boolMetric(parHash == seqHash && parN == seqN), -1)

	// 2. Bin trace file: one streaming write pass, then reopen and hash.
	f, err := os.CreateTemp("", "odr-expw-*.bin")
	if err != nil {
		panic(err)
	}
	path := f.Name()
	defer os.Remove(path)
	bw := bufio.NewWriterSize(f, 1<<20)
	start = time.Now()
	if err := trace.WriteWorkloadBinStream(bw, st.RequestsWorkers(paperScaleGenWorkers)); err != nil {
		panic(err)
	}
	if err := bw.Flush(); err != nil {
		panic(err)
	}
	info, err := f.Stat()
	if err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	writeSecs := time.Since(start).Seconds()
	r.addf("bin write: %d bytes (%.1f MB, %.1f B/record) in %.1fs (%.1f MB/s)",
		info.Size(), float64(info.Size())/mb, float64(info.Size())/float64(seqN),
		writeSecs, float64(info.Size())/mb/writeSecs)
	r.metric("bin_bytes", float64(info.Size()), -1)
	r.metric("bin_write_mb_per_s", float64(info.Size())/mb/writeSecs, -1)

	src, format, closer, err := trace.OpenWorkloadFile(path)
	if err != nil {
		panic(err)
	}
	if format != "bin" {
		fail("wrote bin, detected %q", format)
	}
	if sz, ok := src.(workload.Sizer); !ok {
		fail("seekable bin trace lost its Sizer")
	} else if sz.TotalRequests() != seqN {
		fail("trailer count %d, want %d", sz.TotalRequests(), seqN)
	}
	start = time.Now()
	fileHash, fileN, err := trace.HashWorkload(src)
	closer.Close()
	if err != nil {
		panic(err)
	}
	decodeRate := float64(fileN) / time.Since(start).Seconds()
	r.addf("bin decode: %.0f rec/s", decodeRate)
	r.metric("bin_decode_recs_per_s", decodeRate, -1)
	if fileHash != seqHash || fileN != seqN {
		fail("bin round trip diverged: %s/%d vs %s/%d", fileHash, fileN, seqHash, seqN)
	} else {
		r.addf("bin round trip reproduces the generated digest")
	}
	r.metric("bin_roundtrip_match", boolMetric(fileHash == seqHash && fileN == seqN), -1)

	// 3. Full-week replay, three input paths. The trace-file arm is the
	// paper-scale one: it streams straight off disk with the timeline
	// armed and allocations measured. The generator-stream and slice arms
	// cross-check it at different shard counts (times truncated to the
	// trace's millisecond precision so the bytes are comparable).
	aps := l.APs()
	fileSrc, _, fileCloser, err := trace.OpenWorkloadFile(path)
	if err != nil {
		panic(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start = time.Now()
	fileRes, err := replay.RunODRStream(fileSrc, st.Files, aps, replay.Options{
		Seed: l.cfg.Seed, Shards: 4,
		Timeline: &replay.TimelineConfig{Span: st.Span},
	})
	if err != nil {
		panic(err)
	}
	replaySecs := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	fileCloser.Close()
	replayRate := float64(seqN) / replaySecs
	allocsPerReq := float64(after.Mallocs-before.Mallocs) / float64(seqN)
	gcPauseMs := float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	r.addf("replay (trace file, 4 shards): %d tasks in %.1fs — %.0f req/s, %.1f allocs/request, %.2f GB heap, %.1f ms GC pause",
		len(fileRes.Tasks), replaySecs, replayRate, allocsPerReq, float64(after.HeapAlloc)/gb, gcPauseMs)
	r.metric("replay_reqs_per_s", replayRate, -1)
	r.metric("allocs_per_request", allocsPerReq, -1)
	r.metric("heap_gb", float64(after.HeapAlloc)/gb, -1)
	r.metric("gc_pause_ms", gcPauseMs, -1)

	fileDigest := fileRes.Digest()
	genRes, err := replay.RunODRStream(
		&msTruncSource{src: st.RequestsWorkers(paperScaleGenWorkers)}, st.Files, aps,
		replay.Options{Seed: l.cfg.Seed, Shards: 1})
	if err != nil {
		panic(err)
	}
	sliceReqs, err := workload.Collect(&msTruncSource{src: st.Requests()})
	if err != nil {
		panic(err)
	}
	sliceRes := replay.RunODR(sliceReqs, st.Files, aps, replay.Options{Seed: l.cfg.Seed, Shards: 4})
	digestsEqual := fileDigest == genRes.Digest() && fileDigest == sliceRes.Digest()
	if !digestsEqual {
		fail("replay digests diverged across input paths (file==gen %v, file==slice %v)",
			fileDigest == genRes.Digest(), fileDigest == sliceRes.Digest())
	} else {
		r.addf("replay digests byte-identical: trace file (4 shards) == generator stream (1 shard) == slice (4 shards)")
	}
	r.metric("replay_digests_equal", boolMetric(digestsEqual), -1)
	r.metric("impeded_ratio", fileRes.ImpededRatio(), -1)

	// Per-window timeline of the trace-file replay.
	if tl := fileRes.Timeline; tl != nil {
		r.addf("%-10s %10s %10s %10s %10s", "window", "tasks", "failures", "impeded", "fail%")
		for w := 0; w < tl.NumWindows(); w++ {
			ws := tl.Stats(w)
			if ws.Tasks == 0 {
				continue
			}
			r.addf("%-10s %10d %10d %10d %9.1f%%",
				ws.Start.String(), ws.Tasks, ws.Failures, ws.Impeded, ws.FailRatio*100)
		}
		if worst, ok := tl.WorstWindow(); ok {
			r.addf("worst window: start %v, %d tasks, %.1f%% failures",
				worst.Start, worst.Tasks, worst.FailRatio*100)
			r.metric("worst_window_fail_ratio", worst.FailRatio, -1)
		}
	}

	if pass {
		r.addf("EXPW verdict: PASS")
	} else {
		r.addf("EXPW verdict: FAIL")
	}
	r.metric("pass", boolMetric(pass), -1)
	return r
}

func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}
