package distrib

import (
	"fmt"
	"os"

	"odr/internal/replay"
	"odr/internal/trace"
)

// State files ("ODRS", in the checkpoint frame of frame.go) carry what a
// window worker starts from instead of re-reading the trace before its
// window: the cloud's observation state at the window's base, one file
// per pending window. The JSON header pins the file to one trace (by
// SHA-256), one spec fingerprint and one record boundary. The file
// population needs no file: the trace's own file table declares it
// (trace.BinCensus).

// stateName is window idx's state file name in the checkpoint directory.
func stateName(idx int) string { return fmt.Sprintf("state-%05d.odrs", idx) }

// stateHeader is a state file's JSON header: the trace, spec and record
// boundary its state holds for.
type stateHeader struct {
	TraceSHA256 string `json:"trace_sha256"`
	Spec        string `json:"spec"`
	Base        int64  `json:"base"`
}

// encodeState renders a state file.
func encodeState(hdr stateHeader, payload []byte) []byte {
	raw, err := stateFrame.encode(hdr, payload)
	if err != nil {
		panic(err) // a struct of strings and an integer cannot fail to encode
	}
	return raw
}

// decodeState parses a state file's bytes into its header and payload.
func decodeState(raw []byte) (stateHeader, []byte, error) {
	var hdr stateHeader
	payload, err := stateFrame.decode(raw, &hdr)
	return hdr, payload, err
}

// writeState writes a state file atomically and durably, so a worker
// handed its path reads the whole file or none.
func writeState(path string, hdr stateHeader, payload []byte) error {
	return writeAtomic(path, encodeState(hdr, payload))
}

// readState reads a state file and returns its payload once its header
// matches want field by field; a mismatch is refused, naming the field.
func readState(path string, want stateHeader) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	got, payload, err := decodeState(raw)
	if err != nil {
		return nil, fmt.Errorf("distrib: %s: %w", path, err)
	}
	var field string
	var g, w any
	switch {
	case got.TraceSHA256 != want.TraceSHA256:
		field, g, w = "trace_sha256", got.TraceSHA256, want.TraceSHA256
	case got.Spec != want.Spec:
		field, g, w = "spec", got.Spec, want.Spec
	case got.Base != want.Base:
		field, g, w = "base", got.Base, want.Base
	default:
		return payload, nil
	}
	return nil, fmt.Errorf("distrib: %s: state %s: the file holds %v, want %v", path, field, g, w)
}

// statePass hands emit the cloud's observation state at each of bases
// (ascending, at least one), as the census population's cloud holds it on
// reaching that record: replay.ObserveStates over the trace's census and
// its records [0, last base), read as census ordinals
// (trace.Bin.Ordinals). In static mode that reads no record. The
// coordinator runs it once over every window of its checkpoint; a worker
// handed no state file runs it for its own. m meters the records it reads.
func statePass(bin *trace.Bin, spec WorkerSpec, bases []int,
	m *meter, emit func(base int, state []byte) error) error {
	opts, err := spec.ReplayOptions(nil)
	if err != nil {
		return err
	}
	src, err := bin.Ordinals(0, int64(bases[len(bases)-1]))
	if err != nil {
		return err
	}
	cen := bin.Census()
	return replay.ObserveStates(m.wrapOrdinals(src), cen.Files, cen.First, opts, bases, emit)
}
