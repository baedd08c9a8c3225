package distrib

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"odr/internal/backend"
	"odr/internal/replay"
	"odr/internal/trace"
	"odr/internal/workload"
)

// State files ("ODRS", in the checkpoint frame of frame.go) carry what a
// window worker starts from instead of re-reading the trace before its
// window: the census population (one file per run) and the cloud's
// observation state at each pending window's base (one file per window).
// The JSON header pins the file to one trace (by SHA-256), one spec
// fingerprint and one record boundary.
const (
	// censusRecordLen is one census record: ID, size, weekly requests,
	// class, protocol.
	censusRecordLen = 16 + 8 + 4 + 1 + 1
	// censusName is the census file's name in the checkpoint directory.
	censusName = "census.odrs"
)

// State file kinds.
const (
	kindCensus = "census"
	kindState  = "state"
)

// stateName is window idx's state file name in the checkpoint directory.
func stateName(idx int) string { return fmt.Sprintf("state-%05d.odrs", idx) }

// stateHeader is a state file's JSON header: what the payload is, and the
// trace, spec and record boundary it holds for. A census covers the whole
// trace, so its Base is the trace's record count.
type stateHeader struct {
	Kind        string `json:"kind"`
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
	case got.Kind != want.Kind:
		field, g, w = "kind", got.Kind, want.Kind
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

// encodeCensus packs the census population, in order, into fixed-stride
// records: the fields the backend fleet reads off a file — ID, size, and
// weekly requests (the popularity band) — plus class and protocol.
// SourceURL does not travel; no backend reads it.
func encodeCensus(files []*workload.FileMeta) []byte {
	out := make([]byte, 0, len(files)*censusRecordLen)
	for _, f := range files {
		out = append(out, f.ID[:]...)
		out = binary.LittleEndian.AppendUint64(out, uint64(f.Size))
		out = binary.LittleEndian.AppendUint32(out, uint32(f.WeeklyRequests))
		out = append(out, byte(f.Class), byte(f.Protocol))
	}
	return out
}

// decodeCensus unpacks encodeCensus's records, refusing any field the
// bin trace decoder would refuse: a negative size, an unknown file class
// or an unknown protocol.
func decodeCensus(b []byte) ([]*workload.FileMeta, error) {
	if len(b)%censusRecordLen != 0 {
		return nil, fmt.Errorf("census payload is %d bytes, not whole %d-byte records", len(b), censusRecordLen)
	}
	metas := make([]workload.FileMeta, len(b)/censusRecordLen)
	files := make([]*workload.FileMeta, len(metas))
	for i := range metas {
		rec, f := b[i*censusRecordLen:], &metas[i]
		copy(f.ID[:], rec)
		f.Size = int64(binary.LittleEndian.Uint64(rec[16:]))
		f.WeeklyRequests = int(binary.LittleEndian.Uint32(rec[24:]))
		f.Class, f.Protocol = workload.FileClass(rec[28]), workload.Protocol(rec[29])
		switch {
		case f.Size < 0:
			return nil, fmt.Errorf("census file %d has negative size %d", i, f.Size)
		case int(f.Class) >= workload.NumFileClasses:
			return nil, fmt.Errorf("census file %d has unknown file class %d", i, f.Class)
		case int(f.Protocol) >= workload.NumProtocols:
			return nil, fmt.Errorf("census file %d has unknown protocol %d", i, f.Protocol)
		}
		files[i] = f
	}
	return files, nil
}

// statePass is the one producer of window start states: it hands emit
// the cloud's observation state at each of bases (ascending, at least
// one), as the census population's cloud holds it on reaching that record.
// A static cloud's state is the census prefix seen before the base, so in
// static mode the pass emits it from cen without opening the trace. Under
// a cache policy it streams the trace's records [0, last base) through
// replay.ObserveStates. The coordinator runs it once over every pending
// window's base; a worker handed no state files runs it for its own. m
// meters the records it reads.
func statePass(tracePath string, cen census, spec WorkerSpec, bases []int,
	m *meter, emit func(base int, state []byte) error) error {
	if spec.CachePolicy == "" {
		for _, base := range bases {
			// The census files first seen before base.
			seen := sort.SearchInts(cen.first, base)
			if err := emit(base, backend.AppendStaticState(nil, base, seen)); err != nil {
				return err
			}
		}
		return nil
	}
	opts, err := spec.ReplayOptions(nil)
	if err != nil {
		return err
	}
	src, closer, err := trace.OpenWorkloadBinWindow(tracePath, 0, int64(bases[len(bases)-1]))
	if err != nil {
		return err
	}
	defer closer.Close()
	return replay.ObserveStates(m.wrap(src), cen.files, opts, bases, emit)
}
