package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"odr/internal/workload"
)

// writeBinFile writes reqs as a bin trace under t.TempDir and returns the
// path and the encoded bytes.
func writeBinFile(t *testing.T, reqs []workload.Request) (string, []byte) {
	t.Helper()
	data := binBytes(t, reqs)
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestBinRecords: ReadBinCensus returns the record count the trailer
// declares, and refuses a missing file and one that is not a bin trace.
func TestBinRecords(t *testing.T) {
	reqs := msRequests(t, 250)
	path, _ := writeBinFile(t, reqs)
	cen, err := ReadBinCensus(path)
	if err != nil {
		t.Fatal(err)
	}
	if cen.Records != int64(len(reqs)) {
		t.Fatalf("ReadBinCensus records = %d, want %d", cen.Records, len(reqs))
	}

	if _, err := ReadBinCensus(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinCensus(bad); err == nil {
		t.Fatal("non-bin file accepted")
	}
}

func TestSHA256File(t *testing.T) {
	path, data := writeBinFile(t, msRequests(t, 50))
	got, err := SHA256File(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if want := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("SHA256File = %s, want %s", got, want)
	}
	if _, err := SHA256File(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestOpenWorkloadBinWindow(t *testing.T) {
	reqs := msRequests(t, 300)
	path, _ := writeBinFile(t, reqs)

	src, closer, err := OpenWorkloadBinWindow(path, 120, 90)
	if err != nil {
		t.Fatal(err)
	}
	got := drainChecked(t, src)
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	checkLosslessRoundTrip(t, reqs[120:210], got)

	if _, _, err := OpenWorkloadBinWindow(filepath.Join(t.TempDir(), "missing.bin"), 0, -1); err == nil {
		t.Fatal("missing file accepted")
	}
	// A bad window on a real file must close the handle and report the path.
	if _, _, err := OpenWorkloadBinWindow(path, -1, 5); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// TestBinHandle: one OpenBin serves the census and any number of windows,
// interleaved, each equal to what a fresh open of the same window reads,
// and refuses a negative offset and a read after Close.
func TestBinHandle(t *testing.T) {
	reqs := msRequests(t, 300)
	path, _ := writeBinFile(t, reqs)
	b, err := OpenBin(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadBinCensus(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Census(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Census() = %+v, want ReadBinCensus's %+v", got, want)
	}
	if b.Path() != path {
		t.Fatalf("Path() = %q, want %q", b.Path(), path)
	}
	late, err := b.Window(200, -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ off, lim int64 }{{120, 90}, {0, 300}, {299, 1}, {120, 90}} {
		src, err := b.Window(w.off, w.lim)
		if err != nil {
			t.Fatal(err)
		}
		if sz, ok := src.(workload.Sizer); !ok || sz.TotalRequests() != int(w.lim) {
			t.Fatalf("window %v does not announce its %d records", w, w.lim)
		}
		checkLosslessRoundTrip(t, reqs[w.off:w.off+w.lim], drainChecked(t, src))
	}
	checkLosslessRoundTrip(t, reqs[200:], drainChecked(t, late))

	if _, err := b.Window(-1, 5); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("Window(-1, 5) = %v, want a refusal", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := b.Window(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := workload.Collect(src); err == nil {
		t.Fatalf("a window read after Close returned %d records and no error", len(n))
	}
	bad := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBin(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("OpenBin(non-bin) = %v, want an error naming the file", err)
	}
}

// TestBinWindowsShareIdentities: every window of one Bin hands out the
// same identities — a record's file is the census's own
// (Census().Files[Ord-1]) and a user is one object across windows — and
// its records equal, field for field, the ones a lone window reader
// (OpenWorkloadBinWindow), which builds its own identities, yields. The
// windows are opened and read on goroutines of their own, at once.
func TestBinWindowsShareIdentities(t *testing.T) {
	reqs := msRequests(t, 300)
	path, _ := writeBinFile(t, reqs)
	b, err := OpenBin(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	windows := []struct{ off, lim int64 }{{0, 300}, {120, 90}, {250, -1}, {0, -1}}
	read := make([][]workload.Request, len(windows))
	errs := make([]error, len(windows))
	var wg sync.WaitGroup
	for k, w := range windows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, err := b.Window(w.off, w.lim)
			if err == nil {
				read[k], err = workload.Collect(src)
			}
			errs[k] = err
		}()
	}
	wg.Wait()
	census := b.Census().Files
	users := map[int]*workload.User{}
	for k, w := range windows {
		if errs[k] != nil {
			t.Fatalf("window %v: %v", w, errs[k])
		}
		got := read[k]
		lone, closer, err := OpenWorkloadBinWindow(path, w.off, w.lim)
		if err != nil {
			t.Fatal(err)
		}
		want := drainChecked(t, lone)
		closer.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %v: the Bin's records differ from a lone reader's", w)
		}
		for i, r := range got {
			if r.File != census[r.File.Ord-1] {
				t.Fatalf("window %v, record %d: its file is not the census's", w, i)
			}
			if u, ok := users[r.User.ID]; ok && u != r.User {
				t.Fatalf("window %v, record %d: user %d is another object than in an earlier window", w, i, r.User.ID)
			}
			users[r.User.ID] = r.User
		}
	}
}

// TestBinOrdinals: the ordinal view yields, record for record, the index,
// time and census ordinal (Ord less one) of Window's records, and fails
// where Window fails, with the same error: it is the same reader, less
// the identities.
func TestBinOrdinals(t *testing.T) {
	reqs := msRequests(t, 300)
	path, _ := writeBinFile(t, reqs)
	b, err := OpenBin(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, w := range []struct{ off, lim int64 }{{120, 90}, {0, 300}, {299, 1}, {0, -1}, {250, -1}, {300, 5}} {
		src, err := b.Window(w.off, w.lim)
		if err != nil {
			t.Fatal(err)
		}
		want := drainChecked(t, src)
		ords, err := b.Ordinals(w.off, w.lim)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			i, file, when, ok := ords.Next()
			if !ok {
				break
			}
			if n >= len(want) || i != n || file != int(want[n].File.Ord-1) || when != want[n].Time {
				t.Fatalf("window %v: ordinal record %d = (%d, %d, %v), want the window's record %d", w, n, i, file, when, n)
			}
			n++
		}
		if err := ords.Err(); err != nil || n != len(want) {
			t.Fatalf("window %v: %d ordinal records, %v; want %d", w, n, err, len(want))
		}
	}
	if _, err := b.Ordinals(-1, 5); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("Ordinals(-1, 5) = %v, want a refusal", err)
	}

	for _, tc := range binOrdinalDamage(t, edgeRequests()) {
		path := filepath.Join(t.TempDir(), "damaged.bin")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := OpenBin(path)
		if err != nil {
			t.Fatal(err)
		}
		src, _ := b.Window(0, -1)
		_, want := workload.Collect(src)
		ords, _ := b.Ordinals(0, -1)
		for {
			if _, _, _, ok := ords.Next(); !ok {
				break
			}
		}
		if got := ords.Err(); want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: the ordinal view fails with %v, the window with %v", tc.name, got, want)
		}
		b.Close()
	}
}
