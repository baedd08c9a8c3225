package scenario

import (
	"fmt"
	"sort"
	"strings"

	"odr/internal/obs"
)

// Matrix fans one base spec over a grid of {profile × fault spec × cache
// policy}. Empty axes inherit the base value, so a 1×1×1 matrix is just
// the base scenario; populated axes override the corresponding base
// field cell by cell.
type Matrix struct {
	Base          Spec     `json:"base"`
	Profiles      []string `json:"profiles,omitempty"`
	FaultSpecs    []string `json:"fault_specs,omitempty"`
	CachePolicies []string `json:"cache_policies,omitempty"`
}

// axisOr returns the axis values, or the base value as a 1-element axis.
func axisOr(axis []string, base string) []string {
	if len(axis) == 0 {
		return []string{base}
	}
	return axis
}

// Cells expands the grid into normalized, validated specs. Cell names
// are the profile/faults/policy coordinates.
func (m Matrix) Cells() ([]Spec, error) {
	base := m.Base.Normalized()
	profiles := axisOr(m.Profiles, base.Profile)
	faultSpecs := axisOr(m.FaultSpecs, base.Faults)
	policies := axisOr(m.CachePolicies, base.CachePolicy)

	cells := make([]Spec, 0, len(profiles)*len(faultSpecs)*len(policies))
	for _, p := range profiles {
		for _, f := range faultSpecs {
			for _, c := range policies {
				cell := base
				cell.Profile, cell.Faults, cell.CachePolicy = p, f, c
				cell.Name = "" // names identify cells by coordinates
				cell = cell.Normalized()
				cell.Name = cell.Label()
				if err := cell.Validate(); err != nil {
					return nil, fmt.Errorf("cell %s: %w", cell.Label(), err)
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// MatrixResult is an executed grid: the cells in expansion order and the
// grand-total registry merged across every cell.
type MatrixResult struct {
	Cells []*Result
	// Merged folds every cell's registry with the registry's commutative
	// merge — the fleet-wide totals of the whole grid.
	Merged *obs.Registry
}

// RunMatrix expands and executes the grid, one cell after another (each
// cell already shards its replay across cores). Workload generation is
// shared: cells with the same profile/scale/horizon coordinates replay
// the same generated trace, built once.
func RunMatrix(m Matrix) (*MatrixResult, error) {
	cells, err := m.Cells()
	if err != nil {
		return nil, err
	}

	envs := make(map[envKey]*env)
	for _, c := range cells {
		k := c.envKey()
		if envs[k] != nil {
			continue
		}
		e, err := buildEnv(c)
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", c.Label(), err)
		}
		envs[k] = e
	}

	results := make([]*Result, len(cells))
	merged := obs.NewRegistry()
	for i, c := range cells {
		r, err := runCell(c, envs[c.envKey()])
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", c.Label(), err)
		}
		results[i] = r
		merged.Merge(r.Registry)
	}
	return &MatrixResult{Cells: results, Merged: merged}, nil
}

// Report renders the comparison table: one row per cell with the
// headline outcomes, the pool hit ratio when a cache policy ran, and the
// worst timeline window (peak failure-ratio window on the trace clock)
// when the cells carry timelines — the "when did it hurt most"
// degradation summary.
func (mr *MatrixResult) Report() string {
	var b strings.Builder
	width := 12
	for _, r := range mr.Cells {
		if n := len(r.Spec.Label()); n > width {
			width = n
		}
	}
	workloads := map[envKey]bool{}
	for _, r := range mr.Cells {
		workloads[r.Spec.envKey()] = true
	}
	fmt.Fprintf(&b, "scenario matrix: %d cell(s) over %d workload(s)\n\n", len(mr.Cells), len(workloads))
	fmt.Fprintf(&b, "%-*s  %8s  %6s  %8s  %9s  %9s  %s\n",
		width, "cell", "tasks", "fail%", "impeded%", "cloud GB", "pool hit%", "worst window (fail% @ start)")
	for _, r := range mr.Cells {
		row := fmt.Sprintf("%-*s  %8d  %5.1f%%  %7.1f%%  %9.2f",
			width, r.Spec.Label(),
			len(r.ODR.Tasks),
			r.ODR.FailureRatio()*100,
			r.ODR.ImpededRatio()*100,
			r.ODR.CloudBytes()/(1<<30))
		if st := r.ODR.Backends.Cloud.PoolStats(); st.Hits+st.Misses > 0 {
			row += fmt.Sprintf("  %8.1f%%", float64(st.Hits)/float64(st.Hits+st.Misses)*100)
		} else {
			row += fmt.Sprintf("  %9s", "-")
		}
		if tl := r.Timeline(); tl != nil {
			if ws, ok := tl.WorstWindow(); ok {
				row += fmt.Sprintf("  %5.1f%% @ %gh", ws.FailRatio*100, ws.Start.Hours())
			}
		} else {
			row += "  -"
		}
		b.WriteString(row + "\n")
	}
	if lines := mr.degradations(); len(lines) > 0 {
		b.WriteString("\nper-window degradation (fail% by window; '.' < 1%):\n")
		for _, l := range lines {
			b.WriteString(l + "\n")
		}
	}
	return b.String()
}

// degradations renders each timeline-carrying cell as a compact
// per-window strip, so the report shows the shape of degradation over
// the trace clock, not just its peak.
func (mr *MatrixResult) degradations() []string {
	var lines []string
	width := 0
	for _, r := range mr.Cells {
		if r.Timeline() != nil {
			if n := len(r.Spec.Label()); n > width {
				width = n
			}
		}
	}
	for _, r := range mr.Cells {
		tl := r.Timeline()
		if tl == nil {
			continue
		}
		marks := make([]string, tl.NumWindows())
		for w := range marks {
			ws := tl.Stats(w)
			switch {
			case ws.Tasks == 0:
				marks[w] = "_"
			case ws.FailRatio < 0.01:
				marks[w] = "."
			default:
				marks[w] = fmt.Sprintf("%.0f", ws.FailRatio*100)
			}
		}
		lines = append(lines, fmt.Sprintf("  %-*s  %s", width, r.Spec.Label(), strings.Join(marks, " ")))
	}
	sort.Strings(lines)
	return lines
}
