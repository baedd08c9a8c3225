package distrib

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Checkpoint files — ODRP partials (partial.go) and ODRS state files
// (state.go) — share one frame: an 8-byte block of a 4-byte magic naming
// the kind, a little-endian u16 version and two zero bytes, then two
// sections, a JSON header and the payload, each a u32 length, the bytes,
// and a CRC32-IEEE over the bytes. The magics differ, so neither kind
// reads as the other.
const (
	// frameVersion is both kinds' version. A file of another version is
	// refused, so a checkpoint an older build wrote is recomputed rather
	// than misread.
	frameVersion = 3
	// frameMinLen is the version block and two empty sections.
	frameMinLen = 8 + 2*(4+4)
)

// frameKind is one checkpoint file kind: its magic, and the name its
// errors use.
type frameKind struct {
	magic, name string
}

var (
	partialFrame = frameKind{magic: "ODRP", name: "partial"}
	stateFrame   = frameKind{magic: "ODRS", name: "state"}
)

// encode renders a file of kind k from hdr's JSON and payload.
func (k frameKind) encode(hdr any, payload []byte) ([]byte, error) {
	hdrJSON, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 8, frameMinLen+len(hdrJSON)+len(payload))
	copy(out, k.magic)
	binary.LittleEndian.PutUint16(out[4:6], frameVersion)
	for _, sec := range [][]byte{hdrJSON, payload} {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(sec)))
		out = append(out, sec...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(sec))
	}
	return out, nil
}

// decode checks that raw is a whole, intact file of kind k, unmarshals
// its header into hdr, and returns its payload (a slice of raw). Every
// length is checked against what is there before anything is sliced by
// it (FuzzDecodePartial, FuzzDecodeState).
func (k frameKind) decode(raw []byte, hdr any) ([]byte, error) {
	if len(raw) < frameMinLen {
		return nil, fmt.Errorf("%s file is %d bytes, too short", k.name, len(raw))
	}
	if string(raw[:4]) != k.magic {
		return nil, fmt.Errorf("bad %s magic %q (want %q)", k.name, raw[:4], k.magic)
	}
	if v := binary.LittleEndian.Uint16(raw[4:6]); v != frameVersion {
		return nil, fmt.Errorf("unsupported %s version %d (want %d)", k.name, v, frameVersion)
	}
	rest := raw[8:]
	var secs [2][]byte
	for i, name := range []string{"header", "payload"} {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%s %s section truncated", k.name, name)
		}
		n := uint64(binary.LittleEndian.Uint32(rest))
		if uint64(len(rest)) < 8+n {
			return nil, fmt.Errorf("%s %s length %d overruns the file", k.name, name, n)
		}
		sec := rest[4 : 4+n]
		if crc32.ChecksumIEEE(sec) != binary.LittleEndian.Uint32(rest[4+n:]) {
			return nil, fmt.Errorf("%s %s checksum mismatch (corrupt or truncated)", k.name, name)
		}
		secs[i], rest = sec, rest[8+n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d bytes after the %s payload", len(rest), k.name)
	}
	if err := json.Unmarshal(secs[0], hdr); err != nil {
		return nil, fmt.Errorf("%s header: %w", k.name, err)
	}
	return secs[1], nil
}

// writeAtomic writes raw to path atomically and durably: a temp file in
// the same directory, synced, renamed over path, and the directory
// synced. A crash at any point leaves the old file or the new one, never
// a torn one.
func writeAtomic(path string, raw []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
