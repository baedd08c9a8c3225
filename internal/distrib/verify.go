package distrib

import (
	"odr/internal/obs"
	"odr/internal/replay"
	"odr/internal/smartap"
	"odr/internal/trace"
)

// SingleProcess replays the whole trace in this process through exactly
// the path the workers take — census populations, the same compiled
// options, the full record stream — and returns the result. Its Digest is
// the reference the coordinator's merged digest must match byte for byte
// (odrcoord -verify and EXP-D both rest on it).
func SingleProcess(tracePath string, spec WorkerSpec, timeline *replay.TimelineConfig) (*replay.ODRResult, error) {
	cen, err := takeCensus(tracePath, nil)
	if err != nil {
		return nil, err
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
	full, fcloser, err := trace.OpenWorkloadBinWindow(tracePath, 0, -1)
	if err != nil {
		return nil, err
	}
	defer fcloser.Close()
	return replay.RunODRStream(full, cen.files, smartap.Benchmarked(), opts)
}
