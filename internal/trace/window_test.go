package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
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
