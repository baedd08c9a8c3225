package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runSets is the one command that runs everything: every declared
// workload, each as a child process of this same binary (so CPU seconds
// and peak memory belong to one workload), o.repeat sets back to back.
// With more than one set it is the benchmark's own steadiness check:
// it prints every end-to-end metric's per-set value and spread beside
// its bound and fails if any two sets of the same code disagree by more
// than the bound.
func runSets(ctx context.Context, decl *benchmarkDecl, o options, out io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// sets[s][workload] is one child's result.
	sets := make([]map[string]*result, o.repeat)
	code := 0
	for s := range sets {
		sets[s] = map[string]*result{}
		for _, w := range decl.Workloads {
			fmt.Fprintf(out, "=== set %d/%d: %s\n", s+1, o.repeat, w.Name)
			res, err := runChild(ctx, self, w.Name, o, out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			sets[s][w.Name] = res
		}
	}

	fmt.Fprintf(out, "\n=== summary: %d set(s), seed %d, %.0fs measured per run\n", o.repeat, o.seed, o.seconds)
	for _, w := range decl.Workloads {
		fmt.Fprintf(out, "%s — %s\n", w.Name, w.Why)
		for _, d := range decl.EndToEnd {
			vals := make([]float64, len(sets))
			lo, hi := math.Inf(1), math.Inf(-1)
			line := fmt.Sprintf("  %-16s %-5s", d.Name, d.Unit)
			for s := range sets {
				vals[s] = sets[s][w.Name].Metrics[d.Name].Value
				lo, hi = math.Min(lo, vals[s]), math.Max(hi, vals[s])
				line += fmt.Sprintf(" %14.6g", vals[s])
			}
			if len(sets) > 1 {
				// The worse set against the better one, as the bound reads.
				spread := (hi - lo) / lo
				if d.Better == "higher" {
					spread = (hi - lo) / hi
				}
				verdict := "ok"
				if spread > d.Bound {
					verdict = "DISAGREE"
					code = 1
				}
				line += fmt.Sprintf("   spread %5.1f%% / bound %2.0f%%  %s", spread*100, d.Bound*100, verdict)
			}
			fmt.Fprintln(out, line)
		}
		var failed int64
		for s := range sets {
			failed += sets[s][w.Name].Failed
		}
		fmt.Fprintf(out, "  failed operations over all sets: %d\n", failed)
	}
	return code
}

// runChild runs one workload untraced in a child process, copies its
// report through, and parses the result off its last line.
func runChild(ctx context.Context, self, workload string, o options, out io.Writer) (*result, error) {
	cmd := exec.CommandContext(ctx, self,
		"--workload", workload,
		"--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", "0")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil && len(raw) == 0 {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != nil {
			fmt.Fprintf(out, "%s\n", last)
		}
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if jerr := json.Unmarshal(last, &res); jerr != nil {
		fmt.Fprintf(out, "%s\n", last)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("last line is not a result: %w", jerr)
	}
	return &res, nil
}
