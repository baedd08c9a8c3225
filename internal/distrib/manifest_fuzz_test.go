package distrib

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzLoadManifest: LoadManifest must return an error or a manifest whose
// windows the coordinator can act on without a second look — every window
// inside [0, Records), offsets strictly increasing, every partial a bare
// file name — and whatever it accepts must survive Save→Load unchanged.
func FuzzLoadManifest(f *testing.F) {
	valid := func() *Manifest {
		m := NewManifest("trace.bin", strings.Repeat("ab", 32), 100,
			WorkerSpec{Seed: 3, CachePolicy: "lru", Faults: "0.25"}, 4)
		m.Windows[0].State, m.Windows[0].Partial = StateDone, "window-00000.odrp"
		m.Windows[0].Attempts, m.Windows[0].Seconds = 2, 1.5
		return m
	}
	add := func(mutate func(*Manifest)) {
		m := valid()
		mutate(m)
		raw, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	add(func(*Manifest) {})
	add(func(m *Manifest) { m.Version = 99 })
	add(func(m *Manifest) { m.TracePath = "" })
	add(func(m *Manifest) { m.TraceSHA256 = "abcd" })
	add(func(m *Manifest) { m.Records = -100 })
	add(func(m *Manifest) { m.Spec.Shards = -3 })
	add(func(m *Manifest) { m.Spec.Faults = "nonsense=1" })
	add(func(m *Manifest) { m.Windows = nil })
	add(func(m *Manifest) { m.Windows[2].Offset++ })
	add(func(m *Manifest) { m.Windows[1].Limit = -1 })
	add(func(m *Manifest) { m.Windows[3].Limit++ })
	add(func(m *Manifest) { m.Windows[1].State = "running" })
	add(func(m *Manifest) { m.Windows[0].Partial = "../window-00000.odrp" })
	add(func(m *Manifest) { m.Windows[0].Partial = ".." })
	add(func(m *Manifest) { m.Windows[0].Partial = "" })
	add(func(m *Manifest) { m.Windows[0].Attempts = -1 })
	add(func(m *Manifest) { m.Windows[0].Seconds = -1e300 })
	add(func(m *Manifest) {
		m.Windows = []ManifestWindow{
			{Offset: 0, Limit: math.MaxInt64, State: StatePending},
			{Offset: math.MaxInt64, Limit: math.MaxInt64, State: StatePending},
			{Offset: -2, Limit: 102, State: StatePending},
		}
	})
	f.Add([]byte(`{"version":1,"records":1e3}`))
	f.Add([]byte("{not json"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, ManifestName)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(path)
		if err != nil {
			return
		}
		var next int64
		for i, w := range m.Windows {
			if w.Offset != next || w.Limit <= 0 || w.Limit > m.Records-w.Offset {
				t.Fatalf("accepted windows[%d] = [%d,+%d) outside a trace of %d records (previous window ended at %d)",
					i, w.Offset, w.Limit, m.Records, next)
			}
			next = w.Offset + w.Limit
			if w.Partial != "" && filepath.Dir(filepath.Join(dir, w.Partial)) != dir {
				t.Fatalf("accepted windows[%d].partial %q, which does not name a file in the checkpoint dir", i, w.Partial)
			}
		}
		if next != m.Records {
			t.Fatalf("accepted windows ending at %d of %d records", next, m.Records)
		}
		if err := SaveManifest(path, m); err != nil {
			t.Fatalf("SaveManifest of an accepted manifest: %v", err)
		}
		again, err := LoadManifest(path)
		if err != nil {
			t.Fatalf("LoadManifest of our own save: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("Save→Load is not a fixed point:\n got %+v\nwant %+v", again, m)
		}
	})
}
