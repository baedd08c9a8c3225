package experiments

import (
	"time"

	"odr/internal/cloud"
	"odr/internal/replay"
)

// ODRBottlenecks regenerates Figure 16: ODR against the pure cloud / pure
// smart-AP approaches on the four performance bottlenecks.
func (l *Lab) ODRBottlenecks() *Report {
	r := newReport("F16", "Figure 16: benchmark performance of ODR vs Cloud/Smart APs")
	base := l.CloudBaseline()
	apBase := l.APBench()
	odr := l.ODR()
	week := l.Week()

	// Bottleneck 1: impeded fetching processes. The baseline is the
	// production week (all ISPs), exactly as the paper compares its
	// Unicom-environment ODR replay against the production 28 %.
	b1Base := weekImpededRatio(week)
	b1ODR := odr.ImpededRatio()
	r.addf("Bottleneck 1 (impeded fetches):        baseline %.1f%%  ODR %.1f%%", b1Base*100, b1ODR*100)
	r.addf("  (Unicom-sample cloud baseline, no ISP barrier: %.1f%%)", base.ImpededRatio()*100)
	r.metric("b1_baseline", b1Base, 0.28)
	r.metric("b1_odr", b1ODR, 0.09)

	// Bottleneck 2: cloud upload bandwidth. The Figure 16 bar is
	// purchased/peak; we report the burden reduction plus the projected
	// peak ratio if ODR had been integrated into the week's workload.
	reduction := 1 - odr.CloudBytes()/base.CloudBytes()
	capacity := week.Uploaders().TotalCapacity()
	var peak float64
	for _, s := range week.Burden() {
		if s.Total > peak {
			peak = s.Total
		}
	}
	b2Base := capacity / peak
	b2ODR := capacity / (peak * (1 - reduction))
	r.addf("Bottleneck 2 (purchased/peak burden):  baseline %.2f   ODR %.2f (burden -%.0f%%)",
		b2Base, b2ODR, reduction*100)
	r.metric("b2_burden_reduction", reduction, 0.35)
	r.metric("b2_baseline_purchased_over_peak", b2Base, 30.0/34.0)
	r.metric("b2_odr_purchased_over_peak", b2ODR, 30.0/22.0)

	// Bottleneck 3: unpopular-file pre-download failures.
	b3Base := apBase.UnpopularFailureRatio()
	b3ODR := odr.UnpopularFailureRatio()
	r.addf("Bottleneck 3 (unpopular failures):     baseline %.1f%%  ODR %.1f%%", b3Base*100, b3ODR*100)
	r.metric("b3_baseline", b3Base, 0.42)
	r.metric("b3_odr", b3ODR, 0.13)

	// Bottleneck 4: tasks routed onto an AP whose storage write path
	// would cap the transfer below the access link.
	b4Base := apBase.B4ExposedRatio()
	b4ODR := odr.B4ExposedRatio()
	r.addf("Bottleneck 4 (B4-exposed routings):    baseline %.1f%%  ODR %.1f%%", b4Base*100, b4ODR*100)
	r.metric("b4_baseline", b4Base, -1)
	r.metric("b4_odr", b4ODR, 0)
	r.Snapshot = l.ODRMetrics().Snapshot()
	return r
}

// weekImpededRatio computes the §4.2 impeded share over the week's
// fetching processes (rejections included, as the paper's 28 % is).
func weekImpededRatio(week *cloud.Cloud) float64 {
	var impeded, fetched int
	for _, rec := range week.Records() {
		if !rec.Fetched {
			continue
		}
		fetched++
		if rec.Impeded() {
			impeded++
		}
	}
	if fetched == 0 {
		return 0
	}
	return float64(impeded) / float64(fetched)
}

// ODRFetchCDF regenerates Figure 17: the CDF of user-perceived fetch
// speeds under ODR against the cloud baseline.
func (l *Lab) ODRFetchCDF() *Report {
	r := newReport("F17", "Figure 17: CDF of fetching speeds using ODR")
	odr := l.ODR().FetchSpeeds()
	base := l.CloudBaseline().FetchSpeeds()
	cdfLines(r, "ODR fetch", "KBps", odr, kb)
	cdfLines(r, "cloud fetch", "KBps", base, kb)
	r.metric("odr_median_kbps", odr.Median()/kb, 368)
	r.metric("odr_mean_kbps", odr.Mean()/kb, 509)
	r.metric("odr_max_mbps", odr.Max()/mb, 2.37)
	r.metric("baseline_median_kbps", base.Median()/kb, 287)
	return r
}

// Ablations quantifies each decision signal's contribution by disabling
// it: the popularity signal drives the Bottleneck 2/3 wins, the ISP signal
// the Bottleneck 1 win, and the storage signal the Bottleneck 4 win.
func (l *Lab) Ablations() *Report {
	r := newReport("ABL", "Ablations: ODR decision signals")
	sample := l.Sample()
	files := l.Trace().Files
	aps := l.APs()
	full := l.ODR()

	run := func(opts replay.Options) *replay.ODRResult {
		opts.Seed = l.cfg.Seed
		return replay.RunODR(sample, files, aps, opts)
	}
	noPop := run(replay.Options{DisablePopularitySignal: true})
	noISP := run(replay.Options{DisableISPSignal: true})
	noStor := run(replay.Options{DisableStorageSignal: true})

	r.addf("%-22s %10s %12s %12s %14s", "variant", "impeded%", "cloud bytes", "unpop fail%", "HP pre-delay")
	line := func(name string, res *replay.ODRResult) {
		r.addf("%-22s %9.1f%% %12.3g %11.1f%% %14v", name,
			res.ImpededRatio()*100, res.CloudBytes(),
			res.UnpopularFailureRatio()*100,
			res.MeanPreDelayHighlyPopular().Round(time.Second))
	}
	line("full ODR", full)
	line("no popularity signal", noPop)
	line("no ISP signal", noISP)
	line("no storage signal", noStor)

	r.metric("full_impeded", full.ImpededRatio(), -1)
	r.metric("noisp_impeded", noISP.ImpededRatio(), -1)
	r.metric("full_cloud_bytes", full.CloudBytes(), -1)
	r.metric("nopop_cloud_bytes", noPop.CloudBytes(), -1)
	r.metric("full_hp_predelay_min", full.MeanPreDelayHighlyPopular().Minutes(), -1)
	r.metric("nostorage_hp_predelay_min", noStor.MeanPreDelayHighlyPopular().Minutes(), -1)
	r.metric("full_b4_exposed", full.B4ExposedRatio(), -1)
	r.metric("nostorage_b4_exposed", noStor.B4ExposedRatio(), -1)
	return r
}

// All runs every experiment in DESIGN.md order.
func (l *Lab) All() []*Report {
	return []*Report{
		l.WorkloadStats(),
		l.FileSizeCDF(),
		l.ZipfFit(),
		l.SEFit(),
		l.CloudSpeeds(),
		l.CloudDelays(),
		l.FailureVsPopularity(),
		l.BandwidthBurden(),
		l.APHardware(),
		l.APSpeeds(),
		l.APDelays(),
		l.DeviceFilesystem(),
		l.APFailures(),
		l.ODRBottlenecks(),
		l.ODRFetchCDF(),
		l.Ablations(),
		l.HybridComparison(),
		l.PoolSweep(),
		l.LEDBATSmoothing(),
		l.StreamEquivalence(),
		l.FaultRouting(),
		l.CacheTournament(),
	}
}

// ByID returns the experiment with the given ID (case-sensitive), or nil.
func (l *Lab) ByID(id string) *Report {
	switch id {
	case "T0", "t0":
		return l.WorkloadStats()
	case "F5", "f5":
		return l.FileSizeCDF()
	case "F6", "f6":
		return l.ZipfFit()
	case "F7", "f7":
		return l.SEFit()
	case "F8", "f8":
		return l.CloudSpeeds()
	case "F9", "f9":
		return l.CloudDelays()
	case "F10", "f10":
		return l.FailureVsPopularity()
	case "F11", "f11":
		return l.BandwidthBurden()
	case "T1", "t1":
		return l.APHardware()
	case "F13", "f13":
		return l.APSpeeds()
	case "F14", "f14":
		return l.APDelays()
	case "T2", "t2":
		return l.DeviceFilesystem()
	case "APFAIL", "apfail":
		return l.APFailures()
	case "F16", "f16":
		return l.ODRBottlenecks()
	case "F17", "f17":
		return l.ODRFetchCDF()
	case "ABL", "abl":
		return l.Ablations()
	case "HYB", "hyb":
		return l.HybridComparison()
	case "POOL", "pool":
		return l.PoolSweep()
	case "LED", "led":
		return l.LEDBATSmoothing()
	case "S1", "s1":
		return l.StreamEquivalence()
	case "EXPF", "expf":
		return l.FaultRouting()
	case "EXPC", "expc":
		return l.CacheTournament()
	case "EXPW", "expw":
		return l.PaperScale()
	}
	return nil
}
