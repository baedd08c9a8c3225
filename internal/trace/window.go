package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"odr/internal/workload"
)

// ReadBinCensus returns the census a bin trace file's trailer and file
// table declare — its record count, its files in first-appearance order
// and the record each first appears at — without decoding any record.
// The distrib coordinator plans its window map from the count, pins it
// into the checkpoint manifest, and starts every window from the files.
func ReadBinCensus(path string) (BinCensus, error) {
	f, err := os.Open(path)
	if err != nil {
		return BinCensus{}, err
	}
	defer f.Close()
	cen, err := readBinCensus(f)
	if err != nil {
		return BinCensus{}, fmt.Errorf("trace: %s: %w", path, err)
	}
	return cen, nil
}

// SHA256File returns the lowercase hex SHA-256 of the file's bytes. The
// checkpoint manifest pins the trace identity with it, so a resume against
// a regenerated or truncated trace fails loudly instead of merging windows
// of different traces.
func SHA256File(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("trace: %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// OpenWorkloadBinWindow opens the half-open record window
// [offset, offset+limit) of a bin trace file (limit < 0 means "to the
// end"). Whole chunks before the window are skipped via the frame record
// counts, so opening a late window costs header reads, not decodes. The
// source re-bases indices at 0; close the returned closer when done.
func OpenWorkloadBinWindow(path string, offset, limit int64) (workload.RequestSource, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	src, err := StreamWorkloadBinWindow(f, offset, limit)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return src, f, nil
}
