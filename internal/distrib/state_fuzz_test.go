package distrib

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"odr/internal/workload"
)

// sampleCensus is a small census population with every record field set.
func sampleCensus() []*workload.FileMeta {
	return []*workload.FileMeta{
		{ID: workload.FileIDFromIndex(1), Size: 700 << 20, WeeklyRequests: 3, Class: 1, Protocol: 2},
		{ID: workload.FileIDFromIndex(2), Size: 0, WeeklyRequests: 90210, Class: 3},
	}
}

// TestStateFileRoundTrip: a census survives the state file byte for byte,
// and every corruption the format guards against is refused by name.
func TestStateFileRoundTrip(t *testing.T) {
	hdr := stateHeader{Kind: kindCensus, TraceSHA256: strings.Repeat("ab", 32), Spec: `{"seed":9}`, Base: 40}
	valid := encodeState(hdr, encodeCensus(sampleCensus()))
	got, payload, err := decodeState(valid)
	if err != nil {
		t.Fatal(err)
	}
	files, err := decodeCensus(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != hdr || len(files) != 2 || *files[0] != *sampleCensus()[0] || *files[1] != *sampleCensus()[1] {
		t.Fatalf("round trip: header %+v, files %+v", got, files)
	}
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
		{"a payload that is not records", encodeState(hdr, []byte{1, 2, 3}), "whole"},
	} {
		_, payload, err := decodeState(tc.raw)
		if err == nil {
			_, err = decodeCensus(payload)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	for _, tc := range []struct {
		name string
		file workload.FileMeta
		want string
	}{
		{"negative size", workload.FileMeta{Size: -1}, "census file 1 has negative size"},
		{"unknown class", workload.FileMeta{Class: workload.FileClass(workload.NumFileClasses)}, "census file 1 has unknown file class"},
		{"unknown protocol", workload.FileMeta{Protocol: workload.Protocol(workload.NumProtocols)}, "census file 1 has unknown protocol"},
	} {
		bad := encodeCensus([]*workload.FileMeta{sampleCensus()[0], &tc.file})
		if _, err := decodeCensus(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodeState: decodeState must return an error or a header and
// payload — never panic, never slice past what is there — and what it
// accepts must be a fixed point of encode∘decode; so must an accepted
// census payload.
func FuzzDecodeState(f *testing.F) {
	hdr := stateHeader{Kind: kindCensus, TraceSHA256: strings.Repeat("ab", 32), Spec: `{"seed":9}`, Base: 40}
	valid := encodeState(hdr, encodeCensus(sampleCensus()))
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
	f.Add(encodeState(stateHeader{Kind: kindState, Base: 7}, []byte("d\x07")))
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
			if files, err := decodeCensus(payload); err == nil && !bytes.Equal(encodeCensus(files), payload) {
				t.Fatal("census payload is not a fixed point of encode∘decode")
			}
		}
	})
}
