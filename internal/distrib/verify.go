package distrib

import (
	"context"
	"errors"
	"fmt"

	"odr/internal/replay"
)

// SingleProcess replays the whole trace in this process as one window,
// [0, records), through the worker's own path with no state file
// (Worker.Replay), and returns that partial merged: the reference the
// coordinator's merged digest must match byte for byte (odrcoord -verify
// and the distrib tests rest on it). A trace with no records is an error naming it.
// timeline must be nil, since a window records none; the parameter stays
// only until the frozen benchmark's calls can drop it (ROADMAP 1(d)).
func SingleProcess(tracePath string, spec WorkerSpec, timeline *replay.TimelineConfig) (*Merged, error) {
	if timeline != nil {
		return nil, errors.New("distrib: the single-process reference is a window, which records no timeline")
	}
	req := WorkerRequest{TracePath: tracePath, Spec: spec}
	w, err := OpenWorker(req)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	req.Window.Limit = w.bin.Census().Records
	if req.Window.Limit == 0 {
		return nil, fmt.Errorf("distrib: trace %s holds no records", tracePath)
	}
	p, _, err := w.Replay(context.TODO(), req, nil)
	if err != nil {
		return nil, err
	}
	return MergePartials([]*Partial{p})
}
