package distrib

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"odr/internal/backend"
	"odr/internal/replay"
	"odr/internal/trace"
	"odr/internal/workload"
)

// sampleStates returns the two payloads a state file carries, both at
// record 40 of a small generated week written as a bin trace: a static
// cloud's state (the census prefix's count) and a band pool's, observed
// over the trace's ordinal view as the coordinator's state pass reads it.
func sampleStates(tb testing.TB) (static, dynamic []byte) {
	tb.Helper()
	tr, err := workload.Generate(workload.DefaultConfig(60, 9))
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "trace.bin")
	var buf bytes.Buffer
	if err := trace.WriteWorkloadBinStream(&buf, workload.NewSliceSource(tr.Requests)); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
	bin, err := trace.OpenBin(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer bin.Close()
	src, err := bin.Ordinals(0, -1)
	if err != nil {
		tb.Fatal(err)
	}
	opts, err := WorkerSpec{Seed: 9, CachePolicy: "band", PoolBytes: 64 << 20}.ReplayOptions(nil)
	if err != nil {
		tb.Fatal(err)
	}
	cen := bin.Census()
	err = replay.ObserveStates(src, cen.Files, cen.First, opts, []int{40},
		func(_ int, s []byte) error { dynamic = s; return nil })
	if err != nil {
		tb.Fatal(err)
	}
	return backend.AppendStaticState(nil, 40, 7), dynamic
}

// TestStateFileRoundTrip: a state survives the state file byte for byte,
// static and dynamic, and every corruption the format guards against is
// refused by name.
func TestStateFileRoundTrip(t *testing.T) {
	hdr := stateHeader{TraceSHA256: strings.Repeat("ab", 32), Spec: `{"seed":9}`, Base: 40}
	static, dynamic := sampleStates(t)
	for _, state := range [][]byte{static, dynamic} {
		got, payload, err := decodeState(encodeState(hdr, state))
		if err != nil {
			t.Fatal(err)
		}
		if got != hdr || !bytes.Equal(payload, state) {
			t.Fatalf("round trip: header %+v, payload %x, want %+v, %x", got, payload, hdr, state)
		}
	}
	valid := encodeState(hdr, dynamic)
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"too short", valid[:5], "too short"},
		{"bad magic", append([]byte("XDRS"), valid[4:]...), "magic"},
		{"bad version", append(append([]byte("ODRS"), 9, 0), valid[6:]...), "version"},
		{"truncated", valid[:len(valid)-1], "payload"},
		{"flipped payload byte", func() []byte {
			b := append([]byte(nil), valid...)
			b[len(b)-6] ^= 1
			return b
		}(), "payload checksum"},
		{"trailing bytes", append(append([]byte(nil), valid...), 0), "after the state payload"},
	} {
		if _, _, err := decodeState(tc.raw); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodeState: decodeState must return an error or a header and
// payload — never panic, never slice past what is there — and what it
// accepts must be a fixed point of encode∘decode.
func FuzzDecodeState(f *testing.F) {
	hdr := stateHeader{TraceSHA256: strings.Repeat("ab", 32), Spec: `{"seed":9}`, Base: 40}
	static, dynamic := sampleStates(f)
	valid := encodeState(hdr, dynamic)
	hdrLen := int(binary.LittleEndian.Uint32(valid[8:12]))
	flip := func(at int) []byte {
		b := append([]byte(nil), valid...)
		b[at] ^= 0x20
		return b
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])      // truncated in the payload CRC
	f.Add(valid[:12+hdrLen/2])       // truncated mid-header
	f.Add(flip(9))                   // header length
	f.Add(flip(12 + hdrLen/2))       // header JSON
	f.Add(flip(12 + hdrLen + 8))     // payload length
	f.Add(flip(len(valid) - 4 - 20)) // payload
	f.Add(encodeState(stateHeader{Base: 7}, static))
	partial, err := encodePartial(samplePartial())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(partial) // the other kind

	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, in := range [][]byte{raw, reseal(raw)} {
			hdr, payload, err := decodeState(in)
			if err != nil {
				continue
			}
			enc := encodeState(hdr, payload)
			hdr2, payload2, err := decodeState(enc)
			if err != nil {
				t.Fatalf("decode of our own encoding: %v", err)
			}
			if hdr2 != hdr || !bytes.Equal(payload2, payload) {
				t.Fatal("encode→decode changed the file")
			}
		}
	})
}
