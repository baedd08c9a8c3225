package scenario

import (
	"strings"
	"testing"

	"odr/internal/replay"
	"odr/internal/workload"
)

func smallMatrix() Matrix {
	base := smallSpec()
	base.WindowHours = 12
	return Matrix{
		Base:          base,
		Profiles:      []string{workload.ProfileBaseline, workload.ProfileFlashCrowd},
		FaultSpecs:    []string{"0", "0.25"},
		CachePolicies: []string{"lru"},
	}
}

func TestMatrixCells(t *testing.T) {
	cells, err := smallMatrix().Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("2×2×1 grid expanded to %d cells", len(cells))
	}
	names := map[string]bool{}
	for _, c := range cells {
		if c.Name != c.Label() || c.Name == "" {
			t.Fatalf("cell name %q != label %q", c.Name, c.Label())
		}
		if names[c.Name] {
			t.Fatalf("duplicate cell %q", c.Name)
		}
		names[c.Name] = true
		// Axis values land on the cell; everything else inherits the base.
		if c.Files != 1500 || c.Sample != 150 || c.PoolDivisor != 12 {
			t.Fatalf("cell %q lost base fields: %+v", c.Name, c)
		}
	}
	if !names["flash-crowd/faults=0.25/policy=lru"] {
		t.Fatalf("expected coordinate cell missing; got %v", names)
	}

	// Empty axes collapse to the base value: a flagless matrix is one
	// baseline cell.
	cells, err = Matrix{}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Name != "baseline/faults=off/policy=static" {
		t.Fatalf("empty matrix expanded to %+v", cells)
	}

	// A bad axis value fails expansion with the cell's coordinates.
	bad := smallMatrix()
	bad.CachePolicies = []string{"mru"}
	if _, err := bad.Cells(); err == nil || !strings.Contains(err.Error(), "policy=mru") {
		t.Fatalf("bad policy axis: err = %v", err)
	}
}

func TestRunMatrix(t *testing.T) {
	res, err := RunMatrix(smallMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("ran %d cells, want 4", len(res.Cells))
	}
	for _, c := range res.Cells {
		if len(c.ODR.Tasks) != 150 {
			t.Fatalf("cell %s replayed %d tasks", c.Spec.Label(), len(c.ODR.Tasks))
		}
		if c.Timeline() == nil {
			t.Fatalf("cell %s missing its timeline", c.Spec.Label())
		}
	}
	// The merged registry is the sum of the cells: total replayed tasks
	// across the grid.
	merged := outcomeSnapshot(res.Merged)
	if got := merged.Counters[replay.MetricReplayTasks]; got != 4*150 {
		t.Fatalf("merged task counter = %d, want 600", got)
	}

	// The report carries the grid shape, every cell row, and the
	// per-window degradation strips.
	report := res.Report()
	if !strings.Contains(report, "4 cell(s) over 2 workload(s)") {
		t.Fatalf("report header wrong:\n%s", report)
	}
	for _, c := range res.Cells {
		if !strings.Contains(report, c.Spec.Label()) {
			t.Fatalf("report missing cell %s:\n%s", c.Spec.Label(), report)
		}
	}
	if !strings.Contains(report, "per-window degradation") {
		t.Fatalf("report missing degradation strips:\n%s", report)
	}
	if !strings.Contains(report, "worst window") {
		t.Fatalf("report missing worst-window column:\n%s", report)
	}
}

func TestRunMatrixRejectsBadCell(t *testing.T) {
	bad := smallMatrix()
	bad.FaultSpecs = []string{"transient=2"}
	if _, err := RunMatrix(bad); err == nil {
		t.Fatal("RunMatrix accepted an out-of-range fault rate")
	}
}
