package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"
)

// spanLayers are the layers a workload's spans can land on; bench is the
// part of the traced iteration no layer span covers.
var spanLayers = []string{"workload", "trace", "replay", "obs", "distrib", "odrweb", "bench"}

// loadgenMetrics are the load generator's honesty numbers. They read 0
// on the offline workloads, truthfully: no request was generated.
var loadgenMetrics = []string{
	"loadgen.samples", "loadgen.max_late_ms", "loadgen.single_p99_ms",
	"loadgen.single_p999_ms", "loadgen.achieved_rate",
}

// runTraced is the traced run: the workload's unit of work alternately
// without and with spans (the difference is what tracing costs, and why
// end-to-end numbers only ever come from untraced runs), the layer shares
// of the last traced unit, and then the ledger of isolated per-layer
// loops. It reports the per-layer metrics and writes the spans out at the
// end, never during.
func runTraced(ctx context.Context, decl *benchmarkDecl, e *env, w runner, o options, out io.Writer) (*result, error) {
	if _, err := timeSetup(ctx, w); err != nil {
		w.teardown()
		return nil, err
	}
	defer w.teardown()

	tr := newTracer(o.workload)
	var plain, traced []float64
	var root, mark int
	var loadgen map[string]float64
	start := time.Now()
	for len(traced) < e.sc.MinIterations || time.Since(start).Seconds() < o.seconds/3 {
		cost, layer, err := w.traced(ctx, nil, 0)
		if err != nil {
			return nil, err
		}
		plain = append(plain, cost)
		loadgen = layer

		mark = tr.mark()
		root = tr.start(0, "bench.iteration")
		cost, _, err = w.traced(ctx, tr, root)
		tr.end(root, 0)
		if err != nil {
			return nil, err
		}
		traced = append(traced, cost)
	}

	values, err := runLedger(ctx, e)
	if err != nil {
		return nil, err
	}
	shares := tr.layerShares(root, mark)
	printShares(out, shares)
	for _, layer := range spanLayers {
		values["span.self_share."+layer] = shares[layer]
		delete(shares, layer)
	}
	if len(shares) > 0 {
		return nil, fmt.Errorf("spans landed on layers the benchmark does not declare: %v", shares)
	}
	values["bench.trace_overhead_share"] = median(traced)/median(plain) - 1
	for _, name := range loadgenMetrics {
		values[name] = loadgen[name]
	}

	if err := tr.writeJSON(o.traceOut); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "traced: %d untraced and %d traced units; %d spans written to %s\n",
		len(plain), len(traced), tr.mark(), o.traceOut)
	return emit(out, decl.PerLayer, values, nil, int64(len(plain)+len(traced)), 0)
}

// printShares lists the last traced unit's layer shares, largest first:
// where that unit's wall time went.
func printShares(out io.Writer, shares map[string]float64) {
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
	fmt.Fprintln(out, "self time by layer, last traced unit (share of its wall):")
	for _, l := range layers {
		fmt.Fprintf(out, "  %-10s %6.1f%%\n", l, shares[l]*100)
	}
}
