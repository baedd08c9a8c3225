package replay

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"odr/internal/core"
	"odr/internal/faults"
)

// fmtDigest is DigestOf as it was written before the strconv rewrite, kept
// verbatim as the oracle: the digest's bytes are defined as whatever these
// format strings print.
func fmtDigest(tasks []ODRTask, ledgers []LedgerCounts, tot ShardTotals) string {
	var b strings.Builder
	for i := range tasks {
		t := &tasks[i]
		fmt.Fprintf(&b, "%d|%v|%v|%q|%x|%d|%x|%v|%v\n",
			i, t.Decision.Route, t.Success, t.Cause,
			math.Float64bits(t.PerceivedRate), t.PreDelay,
			math.Float64bits(t.CloudBytes), t.StorageBound, t.B4Exposed)
	}
	for _, l := range ledgers {
		fmt.Fprintf(&b, "%s|%d|%d|%d|%d|%d\n", l.Name,
			l.PreDownloads, l.Fetches, l.Failures, l.BytesOut, l.BytesOutHP)
	}
	fmt.Fprintf(&b, "totals|%d|%d\n", tot.Tasks, tot.Failures)
	return b.String()
}

func TestDigestMatchesFmtReference(t *testing.T) {
	check := func(name string, tasks []ODRTask, ledgers []LedgerCounts, tot ShardTotals) {
		t.Helper()
		got, want := DigestOf(tasks, ledgers, tot), fmtDigest(tasks, ledgers, tot)
		if got != want {
			t.Errorf("%s: DigestOf diverged from the fmt reference\nfirst differing line:\n%s",
				name, firstDiff(want, got))
		}
	}

	// Real replay output: every route, success and failure causes, and a
	// faulted run for the causes only injection produces.
	f := setup(t)
	storm := faults.Preset(0.5)
	for _, opts := range []Options{
		{Seed: 14, Shards: 3},
		{Seed: 14, Shards: 3, Faults: &storm},
	} {
		res := RunODR(f.sample, f.trace.Files, f.aps, opts)
		check("replay", res.Tasks, res.Ledgers(), res.Engine.Totals())
	}

	check("empty", nil, nil, ShardTotals{})

	causes := []string{
		"", "no-seeds", `say "hi"`, `back\slash`, "line\nbreak\r\ttab", "nul\x00bell\a",
		"bad-utf8-\xff\xfe", "trunc-\xe2\x82", "snow☃man", " sep", "\U0010ffff", "\x7f", "'single'", "`tick`",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64,
		math.Float64frombits(0x7ff8000000000001), // a NaN with payload
	}
	delays := []time.Duration{0, 1, -1, time.Hour, math.MinInt64, math.MaxInt64}
	routes := []core.Route{
		core.RouteUserDevice, core.RouteSmartAP, core.RouteCloud, core.RouteCloudThenAP,
		core.RouteCloudPreDownload, core.Route(core.NumRoutes), core.Route(200), core.Route(255),
	}
	var adversarial []ODRTask
	for i := 0; i < len(causes)*len(floats); i++ {
		adversarial = append(adversarial, ODRTask{
			Decision:      core.Decision{Route: routes[i%len(routes)]},
			Success:       i%2 == 0,
			Cause:         causes[i%len(causes)],
			PerceivedRate: floats[i%len(floats)],
			PreDelay:      delays[i%len(delays)],
			CloudBytes:    floats[(i/3)%len(floats)],
			StorageBound:  i%3 == 0,
			B4Exposed:     i%5 == 0,
		})
	}
	ledgers := []LedgerCounts{
		{Name: "cloud", PreDownloads: 1, Fetches: 2, Failures: 3, BytesOut: 4, BytesOutHP: 5},
		{Name: "", PreDownloads: -1, Fetches: math.MinInt64, Failures: math.MaxInt64, BytesOut: -7},
		{Name: "pipe|and\nnewline \"quoted\" %d \xff"},
	}
	check("adversarial", adversarial, ledgers, ShardTotals{Tasks: -3, Failures: math.MinInt64})
	if !strings.Contains(DigestOf(adversarial, nil, ShardTotals{}), "|route(200)|") {
		t.Error("an out-of-range route no longer prints as route(N)")
	}
}
