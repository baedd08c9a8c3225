package trace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"odr/internal/workload"
)

// DetectWorkloadFormat names the trace format ("bin", "csv", or "jsonl")
// from the first bytes of a file, falling back to the path's extension
// when the content is ambiguous. It returns "" when neither identifies
// the format.
func DetectWorkloadFormat(prefix []byte, path string) string {
	if bytes.HasPrefix(prefix, []byte(binMagic)) {
		return "bin"
	}
	trimmed := bytes.TrimLeft(prefix, " \t\r\n")
	switch {
	case bytes.HasPrefix(trimmed, []byte("{")):
		return "jsonl"
	case bytes.HasPrefix(trimmed, []byte(workloadHeader[0])):
		return "csv"
	}
	switch strings.ToLower(filepath.Ext(path)) {
	case ".bin", ".odrb":
		return "bin"
	case ".jsonl", ".ndjson":
		return "jsonl"
	case ".csv":
		return "csv"
	}
	return ""
}

// OpenWorkloadFile opens a workload trace file with the format
// auto-detected from its magic bytes (extension as fallback) and returns a
// streaming source over it, the detected format, and a closer that
// releases the source (a CSV source's reader goroutines), then the file.
// bin traces opened this way keep the file's seekability, so the source
// implements workload.Sizer.
func OpenWorkloadFile(path string) (workload.RequestSource, string, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", nil, err
	}
	var prefix [len(binMagic) + 16]byte
	n, err := io.ReadFull(f, prefix[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		f.Close()
		return nil, "", nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, "", nil, err
	}
	format := DetectWorkloadFormat(prefix[:n], path)
	if format == "" {
		f.Close()
		return nil, "", nil, fmt.Errorf("trace: %s: cannot detect trace format from content or extension (want csv, jsonl, or bin)", path)
	}
	src, err := StreamWorkload(f, format)
	if err != nil {
		f.Close()
		return nil, "", nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return src, format, sourceFile{src, f}, nil
}

// sourceFile closes a trace source that is an io.Closer, then its file.
type sourceFile struct {
	src workload.RequestSource
	f   *os.File
}

func (c sourceFile) Close() error {
	if sc, ok := c.src.(io.Closer); ok {
		sc.Close() // a source's Close only stops its goroutines
	}
	return c.f.Close()
}
