package distrib

import (
	"fmt"

	"odr/internal/obs"
	"odr/internal/replay"
	"odr/internal/smartap"
	"odr/internal/trace"
)

// SingleProcess replays the whole trace in this process through exactly
// the path the workers take — the census population from the trace's
// file table, the same compiled options, the full record stream — and
// returns the result. It reads the file table once and decodes the trace
// once. Its Digest is the reference the coordinator's merged digest must
// match byte for byte (odrcoord -verify and EXP-D both rest on it). A
// trace with no records is an error naming it: it has no population to
// size a cloud from.
func SingleProcess(tracePath string, spec WorkerSpec, timeline *replay.TimelineConfig) (*replay.ODRResult, error) {
	bin, err := trace.OpenBin(tracePath)
	if err != nil {
		return nil, err
	}
	defer bin.Close()
	if bin.Census().Records == 0 {
		return nil, fmt.Errorf("distrib: trace %s holds no records", tracePath)
	}

	var reg *obs.Registry
	if spec.Metrics {
		reg = obs.NewRegistry()
	}
	opts, err := spec.ReplayOptions(reg)
	if err != nil {
		return nil, err
	}
	opts.Timeline = timeline
	full, err := bin.Window(0, -1)
	if err != nil {
		return nil, err
	}
	return replay.RunODRStream(full, bin.Census().Files, smartap.Benchmarked(), opts)
}
