package experiments

import (
	"math"

	"odr/internal/replay"
	"odr/internal/workload"
)

// StreamODR replays the §6.2 sample through the bounded-memory streaming
// pipeline end to end: the week is regenerated chunk by chunk with
// GenerateStream, the §5.1 sample is drawn from the request stream with
// UnicomSampleSource, and the replay runs through RunODRStream. Nothing
// here touches the Lab's materialized trace, so agreement with ODR()
// cross-checks the two input paths (streamed vs materialized generation
// and sampling) into the one replay engine, memoized like the other
// artifacts.
func (l *Lab) StreamODR() *replay.ODRResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.streamODR == nil {
		st, err := workload.GenerateStream(
			workload.DefaultConfig(l.cfg.NumFiles, l.cfg.Seed), workload.DefaultStreamChunk)
		if err != nil {
			panic(err) // config is validated in NewLab; this is a bug
		}
		sample, err := workload.UnicomSampleSource(st.Requests(), l.cfg.SampleSize, l.cfg.Seed)
		if err != nil {
			panic(err) // the generator source cannot fail mid-stream
		}
		res, err := replay.RunODRStream(workload.NewSliceSource(sample), st.Files,
			l.apsLocked(), replay.Options{Seed: l.cfg.Seed})
		if err != nil {
			panic(err)
		}
		l.streamODR = res
	}
	return l.streamODR
}

// StreamEquivalence regenerates the §6.2 headline numbers through the
// streaming input path and diffs them against the materialized one. Every
// diff metric must be exactly zero: the streaming generator and sampler
// are specified to be byte-identical to their slice counterparts, not
// merely statistically close.
func (l *Lab) StreamEquivalence() *Report {
	r := newReport("S1", "Streaming pipeline: bounded-memory replay vs the slice path")
	slice := l.ODR()
	stream := l.StreamODR()

	r.addf("%-28s %14s %14s", "metric", "slice", "stream")
	maxDiff := 0.0
	cmp := func(name, key string, a, b float64) {
		r.addf("%-28s %14.6g %14.6g", name, a, b)
		d := math.Abs(a - b)
		if d > maxDiff {
			maxDiff = d
		}
		r.metric(key+"_diff", d, 0)
	}
	cmp("tasks", "tasks", float64(len(slice.Tasks)), float64(len(stream.Tasks)))
	cmp("impeded ratio", "impeded", slice.ImpededRatio(), stream.ImpededRatio())
	cmp("cloud bytes", "cloud_bytes", slice.CloudBytes(), stream.CloudBytes())
	cmp("unpopular failure ratio", "unpop_failure",
		slice.UnpopularFailureRatio(), stream.UnpopularFailureRatio())
	cmp("B4-exposed ratio", "b4_exposed", slice.B4ExposedRatio(), stream.B4ExposedRatio())
	cmp("fetch speed median (Bps)", "fetch_median",
		slice.FetchSpeeds().Median(), stream.FetchSpeeds().Median())
	cmp("fetch speed mean (Bps)", "fetch_mean",
		slice.FetchSpeeds().Mean(), stream.FetchSpeeds().Mean())
	cmp("HP pre-delay mean (min)", "hp_predelay",
		slice.MeanPreDelayHighlyPopular().Minutes(),
		stream.MeanPreDelayHighlyPopular().Minutes())

	r.addf("engine shards: slice %d, stream %d (equivalence holds for any count)",
		slice.Engine.Shards, stream.Engine.Shards)
	r.metric("max_abs_diff", maxDiff, 0)
	return r
}
