package distrib

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/replay"
)

// fmtDigest is the digest's defining form — the fmt verbs replay.DigestOf
// printed with before it moved to strconv appends (the same oracle as
// internal/replay's TestDigestMatchesFmtReference, repeated here because a
// test file cannot be imported).
func fmtDigest(tasks []replay.DigestRecord, ledgers []replay.LedgerCounts, tot replay.ShardTotals) string {
	var b strings.Builder
	for i := range tasks {
		t := &tasks[i]
		fmt.Fprintf(&b, "%d|%v|%v|%q|%x|%d|%x|%v|%v\n",
			i, t.Route, t.Success, t.Cause,
			math.Float64bits(t.PerceivedRate), t.PreDelay,
			math.Float64bits(t.CloudBytes), t.StorageBound, t.B4Exposed)
	}
	for _, l := range ledgers {
		fmt.Fprintf(&b, "%s|%d|%d|%d|%d|%d\n", l.Name,
			l.PreDownloads, l.Fetches, l.Failures, l.BytesOut, l.BytesOutHP)
	}
	fmt.Fprintf(&b, "totals|%d|%d\n", tot.Tasks, tot.Failures)
	return b.String()
}

// samplePartial is a small partial with every record field populated and
// awkward strings in both interned tables.
func samplePartial() *Partial {
	p := &Partial{
		Window: Window{Offset: 40, Limit: 3},
		Spec:   "seed=9",
		Ledgers: []replay.LedgerCounts{
			{Name: "cloud", PreDownloads: 2, Fetches: 3, Failures: 1, BytesOut: 1 << 40, BytesOutHP: 7},
		},
		Totals:  replay.ShardTotals{Tasks: 3, Failures: 1},
		Seconds: 0.25,
	}
	for i, cause := range []string{"", "no-seeds", "odd \"cause\"\n\\"} {
		p.Tasks = append(p.Tasks, replay.DigestRecord{
			Route:         core.Route(i * 2),
			Success:       cause == "",
			Cause:         cause,
			PerceivedRate: 1.5e6 / float64(i+1),
			PreDelay:      time.Duration(-i) * time.Minute,
			CloudBytes:    math.Copysign(0, -1),
			StorageBound:  i == 1,
			B4Exposed:     i == 2,
		})
	}
	return p
}

// reseal rewrites each section's CRC in a checkpoint file (either kind)
// to match its bytes, as far as the section lengths fit, so a mutated
// file gets past the checksums and exercises the parser behind them.
func reseal(raw []byte) []byte {
	out := append([]byte(nil), raw...)
	at := uint64(8)
	for sec := 0; sec < 2 && at+4 <= uint64(len(out)); sec++ {
		n := uint64(binary.LittleEndian.Uint32(out[at:]))
		if at+8+n > uint64(len(out)) {
			break
		}
		binary.LittleEndian.PutUint32(out[at+4+n:], crc32.ChecksumIEEE(out[at+4:at+4+n]))
		at += 8 + n
	}
	return out
}

// withHeader rebuilds valid with its JSON header edited by edit, keeping
// the records.
func withHeader(t testing.TB, valid []byte, edit func(h map[string]any)) []byte {
	t.Helper()
	var h map[string]any
	recs, err := partialFrame.decode(valid, &h)
	if err != nil {
		t.Fatal(err)
	}
	edit(h)
	out, err := partialFrame.encode(h, recs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDecodePartialRejectsBadTaskCounts: the header's task count sizes
// the task slice, so a count the record bytes do not back — negative, or
// so large that count×28 wraps int64 onto the real byte count — must be
// an error before anything is allocated.
func TestDecodePartialRejectsBadTaskCounts(t *testing.T) {
	empty := samplePartial()
	empty.Tasks = nil
	raw, err := encodePartial(empty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodePartial(raw); err != nil {
		t.Fatalf("empty partial: %v", err)
	}
	// 2^62 × 28 ≡ 0 (mod 2^64): matches the empty record section if the
	// check multiplies.
	for _, n := range []int64{-1, math.MinInt64, 1, 1 << 61, 1 << 62, math.MaxInt64} {
		bad := withHeader(t, raw, func(h map[string]any) { h["tasks"] = n })
		if _, err := decodePartial(bad); err == nil || !strings.Contains(err.Error(), "tasks") {
			t.Errorf("tasks=%d: decodePartial = %v, want a task-count error", n, err)
		}
	}
}

// TestFileKindsDoNotSwap: partials and state files share a frame, so
// only the magic tells them apart; each decoder must refuse the other
// kind's file by it.
func TestFileKindsDoNotSwap(t *testing.T) {
	partial, err := encodePartial(samplePartial())
	if err != nil {
		t.Fatal(err)
	}
	static, _ := sampleStates(t)
	state := encodeState(stateHeader{}, static)
	if _, err := decodePartial(state); err == nil || !strings.Contains(err.Error(), `bad partial magic "ODRS"`) {
		t.Errorf("decodePartial(state file) = %v, want a refusal naming its magic", err)
	}
	if _, _, err := decodeState(partial); err == nil || !strings.Contains(err.Error(), `bad state magic "ODRP"`) {
		t.Errorf("decodeState(partial) = %v, want a refusal naming its magic", err)
	}
}

// FuzzDecodePartial: decodePartial must return an error or a partial —
// never panic, never size anything from an unchecked field — and what it
// accepts must be a fixed point of encode∘decode whose digest is the
// fmt-defined one.
func FuzzDecodePartial(f *testing.F) {
	valid, err := encodePartial(samplePartial())
	if err != nil {
		f.Fatal(err)
	}
	hdrLen := int(binary.LittleEndian.Uint32(valid[8:12]))
	flip := func(at int) []byte {
		b := append([]byte(nil), valid...)
		b[at] ^= 0x20
		return b
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-9])      // truncated mid-record
	f.Add(valid[:12+hdrLen/2])       // truncated mid-header
	f.Add(flip(9))                   // header length
	f.Add(flip(12 + hdrLen/2))       // header JSON
	f.Add(flip(16 + hdrLen + 1))     // payload length
	f.Add(flip(20 + hdrLen + 2))     // first record's cause index
	f.Add(flip(len(valid) - 4 - 20)) // last record
	f.Add(withHeader(f, valid, func(h map[string]any) { h["tasks"] = -1 }))
	f.Add(withHeader(f, valid, func(h map[string]any) { h["tasks"] = int64(1) << 61 }))
	f.Add(withHeader(f, valid, func(h map[string]any) { h["tasks"] = int64(1) << 62 }))
	f.Add(withHeader(f, valid, func(h map[string]any) { h["causes"] = []string{} }))
	static, _ := sampleStates(f)
	f.Add(encodeState(stateHeader{}, static)) // the other kind

	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, in := range [][]byte{raw, reseal(raw)} {
			p1, err := decodePartial(in)
			if err != nil {
				continue
			}
			enc1, err := encodePartial(p1)
			if err != nil {
				t.Fatalf("re-encode of an accepted partial: %v", err)
			}
			p2, err := decodePartial(enc1)
			if err != nil {
				t.Fatalf("decode of our own encoding: %v", err)
			}
			enc2, err := encodePartial(p2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatal("encode→decode→encode is not a fixed point")
			}
			got := replay.DigestOf([][]replay.DigestRecord{p1.Tasks}, p1.Ledgers, p1.Totals)
			if want := fmtDigest(p1.Tasks, p1.Ledgers, p1.Totals); got != want {
				t.Fatalf("DigestOf diverged from the fmt reference on decoded tasks:\n got %q\nwant %q", got, want)
			}
			if got != replay.DigestOf([][]replay.DigestRecord{p2.Tasks}, p2.Ledgers, p2.Totals) {
				t.Fatal("digest changed across encode→decode")
			}
		}
	})
}
