package distrib

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"odr/internal/replay"
	"odr/internal/trace"
	"odr/internal/workload"
)

// State files ("ODRS") carry what a window worker starts from instead of
// re-reading the trace before its window: the census population (one
// file per run) and the cloud's observation state at each pending
// window's base (one file per window). Like ODRP partials they open with
// an 8-byte magic/version block; two CRC-framed sections follow — a JSON
// header pinning the file to one trace (by SHA-256), one spec fingerprint
// and one record boundary, then the payload — each a u32 length, the
// bytes, and a CRC32-IEEE over the bytes.
const (
	stateMagic   = "ODRS"
	stateVersion = 2
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
	hdrJSON, err := json.Marshal(hdr)
	if err != nil {
		panic(err) // a struct of strings and an integer cannot fail to encode
	}
	out := make([]byte, 8, 8+8+len(hdrJSON)+8+len(payload))
	copy(out, stateMagic)
	binary.LittleEndian.PutUint16(out[4:6], stateVersion)
	for _, sec := range [][]byte{hdrJSON, payload} {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(sec)))
		out = append(out, sec...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(sec))
	}
	return out
}

// decodeState parses a state file's bytes into its header and payload.
// Every length is checked against what is there before anything is
// sliced by it (FuzzDecodeState).
func decodeState(raw []byte) (stateHeader, []byte, error) {
	var hdr stateHeader
	if len(raw) < 8 {
		return hdr, nil, fmt.Errorf("state file is %d bytes, too short", len(raw))
	}
	if string(raw[:4]) != stateMagic {
		return hdr, nil, fmt.Errorf("bad state magic %q", raw[:4])
	}
	if v := binary.LittleEndian.Uint16(raw[4:6]); v != stateVersion {
		return hdr, nil, fmt.Errorf("unsupported state version %d (want %d)", v, stateVersion)
	}
	rest := raw[8:]
	var secs [2][]byte
	for i, name := range []string{"header", "payload"} {
		if len(rest) < 4 {
			return hdr, nil, fmt.Errorf("state %s section truncated", name)
		}
		n := uint64(binary.LittleEndian.Uint32(rest))
		if uint64(len(rest)) < 8+n {
			return hdr, nil, fmt.Errorf("state %s length %d overruns the file", name, n)
		}
		sec := rest[4 : 4+n]
		if crc32.ChecksumIEEE(sec) != binary.LittleEndian.Uint32(rest[4+n:]) {
			return hdr, nil, fmt.Errorf("state %s checksum mismatch (corrupt or truncated)", name)
		}
		secs[i], rest = sec, rest[8+n:]
	}
	if len(rest) != 0 {
		return hdr, nil, fmt.Errorf("%d bytes after the state payload", len(rest))
	}
	if err := json.Unmarshal(secs[0], &hdr); err != nil {
		return hdr, nil, fmt.Errorf("state header: %w", err)
	}
	return hdr, secs[1], nil
}

// writeState writes a state file atomically and durably, so a worker
// handed its path reads the whole file or none.
func writeState(path string, hdr stateHeader, payload []byte) error {
	raw := encodeState(hdr, payload)
	return writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	})
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

// decodeCensus unpacks encodeCensus's records.
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
		if f.Size < 0 {
			return nil, fmt.Errorf("census file %d has negative size %d", i, f.Size)
		}
		files[i] = f
	}
	return files, nil
}

// statePass is the one producer of window start states: it streams the
// trace's records [0, last base) through replay.ObserveStates over the
// census population and hands emit the cloud's observation state at each
// of bases (ascending, at least one). The coordinator runs it once over
// every pending window's base; a worker handed no state files runs it for
// its own. m meters the records it reads.
func statePass(tracePath string, files []*workload.FileMeta, spec WorkerSpec, bases []int,
	m *meter, emit func(base int, state []byte) error) error {
	opts, err := spec.ReplayOptions(nil)
	if err != nil {
		return err
	}
	src, closer, err := trace.OpenWorkloadBinWindow(tracePath, 0, int64(bases[len(bases)-1]))
	if err != nil {
		return err
	}
	defer closer.Close()
	return replay.ObserveStates(m.wrap(src), files, opts, bases, emit)
}
