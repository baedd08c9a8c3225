package distrib

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/replay"
	"odr/internal/workload"
)

// fmtDigest is the digest's defining form — the fmt verbs replay.DigestOf
// printed with before it moved to strconv appends (the same oracle as
// internal/replay's TestDigestMatchesFmtReference, repeated here because a
// test file cannot be imported).
func fmtDigest(tasks []replay.ODRTask, ledgers []replay.LedgerCounts, tot replay.ShardTotals) string {
	var b strings.Builder
	for i := range tasks {
		t := &tasks[i]
		fmt.Fprintf(&b, "%d|%v|%v|%q|%x|%d|%x|%v|%v\n",
			i, t.Decision.Route, t.Success, t.Cause,
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
	file := &workload.FileMeta{Size: 700 << 20, WeeklyRequests: 3}
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
		p.Tasks = append(p.Tasks, replay.ODRTask{
			Request:       workload.Request{File: file, Time: time.Duration(i) * time.Hour},
			Decision:      core.Decision{Route: core.Route(i * 2), Reason: "reason-" + cause},
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

// reseal rewrites raw's trailing CRC to match its body, so a mutated file
// gets past the checksum and exercises the parser behind it.
func reseal(raw []byte) []byte {
	if len(raw) < 8+4+4 {
		return raw
	}
	out := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[8:len(out)-4]))
	return out
}

// withHeader rebuilds valid with its JSON header edited by edit, keeping
// the records and resealing.
func withHeader(t testing.TB, valid []byte, edit func(h map[string]any)) []byte {
	t.Helper()
	hdrLen := int(binary.LittleEndian.Uint32(valid[8:12]))
	var h map[string]any
	if err := json.Unmarshal(valid[12:12+hdrLen], &h); err != nil {
		t.Fatal(err)
	}
	edit(h)
	hdr, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), valid[:8]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdr)))
	out = append(out, hdr...)
	out = append(out, valid[12+hdrLen:]...)
	return reseal(out)
}

// TestDecodePartialRejectsBadTaskCounts: the header's task count sizes
// the task slice, so a count the record bytes do not back — negative, or
// so large that count×56 wraps int64 onto the real byte count — must be
// an error before anything is allocated.
func TestDecodePartialRejectsBadTaskCounts(t *testing.T) {
	var buf bytes.Buffer
	empty := samplePartial()
	empty.Tasks = nil
	if err := encodePartial(&buf, empty); err != nil {
		t.Fatal(err)
	}
	if _, err := decodePartial(buf.Bytes()); err != nil {
		t.Fatalf("empty partial: %v", err)
	}
	// 2^61 × 56 ≡ 0 (mod 2^64): matches the empty record section if the
	// check multiplies.
	for _, n := range []int64{-1, math.MinInt64, 1, 1 << 61, math.MaxInt64} {
		bad := withHeader(t, buf.Bytes(), func(h map[string]any) { h["tasks"] = n })
		if _, err := decodePartial(bad); err == nil || !strings.Contains(err.Error(), "tasks") {
			t.Errorf("tasks=%d: decodePartial = %v, want a task-count error", n, err)
		}
	}
}

// FuzzDecodePartial: decodePartial must return an error or a partial —
// never panic, never size anything from an unchecked field — and what it
// accepts must be a fixed point of encode∘decode whose digest is the
// fmt-defined one.
func FuzzDecodePartial(f *testing.F) {
	var buf bytes.Buffer
	if err := encodePartial(&buf, samplePartial()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
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
	f.Add(flip(12 + hdrLen + 2))     // first record's reason index
	f.Add(flip(len(valid) - 4 - 20)) // last record
	f.Add(withHeader(f, valid, func(h map[string]any) { h["tasks"] = -1 }))
	f.Add(withHeader(f, valid, func(h map[string]any) { h["tasks"] = int64(1) << 61 }))
	f.Add(withHeader(f, valid, func(h map[string]any) { h["causes"] = []string{} }))

	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, in := range [][]byte{raw, reseal(raw)} {
			p1, err := decodePartial(in)
			if err != nil {
				continue
			}
			var enc1, enc2 bytes.Buffer
			if err := encodePartial(&enc1, p1); err != nil {
				t.Fatalf("re-encode of an accepted partial: %v", err)
			}
			p2, err := decodePartial(enc1.Bytes())
			if err != nil {
				t.Fatalf("decode of our own encoding: %v", err)
			}
			if err := encodePartial(&enc2, p2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
				t.Fatal("encode→decode→encode is not a fixed point")
			}
			got := replay.DigestOf(p1.Tasks, p1.Ledgers, p1.Totals)
			if want := fmtDigest(p1.Tasks, p1.Ledgers, p1.Totals); got != want {
				t.Fatalf("DigestOf diverged from the fmt reference on decoded tasks:\n got %q\nwant %q", got, want)
			}
			if got != replay.DigestOf(p2.Tasks, p2.Ledgers, p2.Totals) {
				t.Fatal("digest changed across encode→decode")
			}
		}
	})
}
