package distrib

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Window completion states in the checkpoint manifest.
const (
	StatePending = "pending"
	StateDone    = "done"
)

// ManifestWindow is one window's entry in the checkpoint manifest.
type ManifestWindow struct {
	Offset int64 `json:"offset"`
	Limit  int64 `json:"limit"`
	// State is StatePending or StateDone.
	State string `json:"state"`
	// Partial is the partial-result file name (relative to the checkpoint
	// directory), set once the window is done.
	Partial string `json:"partial,omitempty"`
	// Attempts counts how many worker attempts the window has consumed.
	Attempts int `json:"attempts,omitempty"`
	// Seconds is the successful attempt's worker wall time.
	Seconds float64 `json:"seconds,omitempty"`
}

// Window returns the entry's record range.
func (w ManifestWindow) Window() Window { return Window{Offset: w.Offset, Limit: w.Limit} }

// Manifest is the coordinator's checkpoint: which trace (by content
// hash), which configuration, which windows, and which of them already
// have validated partial results on disk. It is rewritten atomically
// (temp file, fsync, rename, directory fsync) after every window
// completes, so a killed coordinator resumes without recomputing finished
// windows.
type Manifest struct {
	Version int `json:"version"`
	// TracePath is informational — the resume command line names the
	// trace; the hash is what must match.
	TracePath string `json:"trace_path"`
	// TraceSHA256 pins the trace's exact bytes.
	TraceSHA256 string `json:"trace_sha256"`
	// Records is the trace's record count (the windows must tile it).
	Records int64 `json:"records"`
	// Spec is the WorkerSpec every window replays under.
	Spec WorkerSpec `json:"spec"`
	// Windows is the window map, ordered by offset.
	Windows []ManifestWindow `json:"windows"`
}

// ManifestVersion is the current checkpoint format version.
const ManifestVersion = 1

// NewManifest plans a fresh manifest: windows tiling the trace, all
// pending.
func NewManifest(tracePath, sha string, records int64, spec WorkerSpec, workers int) *Manifest {
	wins := PlanWindows(records, workers)
	m := &Manifest{
		Version:     ManifestVersion,
		TracePath:   tracePath,
		TraceSHA256: sha,
		Records:     records,
		Spec:        spec,
		Windows:     make([]ManifestWindow, len(wins)),
	}
	for i, w := range wins {
		m.Windows[i] = ManifestWindow{Offset: w.Offset, Limit: w.Limit, State: StatePending}
	}
	return m
}

// Validate checks the manifest's internal consistency, naming the
// offending field in every rejection so a corrupt checkpoint is
// diagnosable from the error alone.
func (m *Manifest) Validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("manifest: version: got %d, want %d", m.Version, ManifestVersion)
	}
	if m.Records <= 0 {
		return fmt.Errorf("manifest: records: got %d, want > 0", m.Records)
	}
	if len(m.TraceSHA256) != 64 {
		return fmt.Errorf("manifest: trace_sha256: got %d hex chars, want 64", len(m.TraceSHA256))
	}
	if err := m.Spec.Validate(); err != nil {
		return fmt.Errorf("manifest: spec: %w", err)
	}
	if len(m.Windows) == 0 {
		return fmt.Errorf("manifest: windows: empty")
	}
	var next int64
	for i, w := range m.Windows {
		if w.Offset != next {
			return fmt.Errorf("manifest: windows[%d].offset: got %d, want %d (windows must tile the trace)",
				i, w.Offset, next)
		}
		if w.Limit <= 0 {
			return fmt.Errorf("manifest: windows[%d].limit: got %d, want > 0", i, w.Limit)
		}
		// Bound before adding: offset+limit on attacker-sized values
		// wraps int64 and can tile its way back to Records.
		if w.Limit > m.Records-w.Offset {
			return fmt.Errorf("manifest: windows[%d].limit: got %d, want <= %d (window must end inside the trace's %d records)",
				i, w.Limit, m.Records-w.Offset, m.Records)
		}
		switch w.State {
		case StatePending, StateDone:
		default:
			return fmt.Errorf("manifest: windows[%d].state: got %q, want %q or %q",
				i, w.State, StatePending, StateDone)
		}
		if w.State == StateDone && w.Partial == "" {
			return fmt.Errorf("manifest: windows[%d].partial: empty for a done window", i)
		}
		// The name is joined onto the checkpoint directory; anything but a
		// bare file name would read outside it.
		if p := w.Partial; p != "" && (p != filepath.Base(p) || p == "." || p == "..") {
			return fmt.Errorf("manifest: windows[%d].partial: got %q, want a bare file name", i, w.Partial)
		}
		if w.Attempts < 0 {
			return fmt.Errorf("manifest: windows[%d].attempts: got %d, want >= 0", i, w.Attempts)
		}
		next = w.Offset + w.Limit
	}
	if next != m.Records {
		return fmt.Errorf("manifest: windows: end at record %d, want %d (windows must tile the trace)",
			next, m.Records)
	}
	return nil
}

// Done counts completed windows.
func (m *Manifest) Done() int {
	n := 0
	for _, w := range m.Windows {
		if w.State == StateDone {
			n++
		}
	}
	return n
}

// LoadManifest reads and validates a checkpoint manifest.
func LoadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("manifest: %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &m, nil
}

// SaveManifest writes the manifest atomically and durably: temp file in
// the same directory, fsync, rename over path, directory fsync. A crash
// at any point leaves either the previous checkpoint or the new one,
// never a torn file.
func SaveManifest(path string, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(path, append(raw, '\n'))
}
