package experiments

import (
	"math"
	"strings"
	"testing"

	"odr/internal/workload"
)

// One shared lab for the whole test binary — the experiments memoize the
// expensive artifacts.
var lab = NewLab(Default())

// within asserts a metric sits within rel of its paper anchor.
func within(t *testing.T, r *Report, key string, rel float64) {
	t.Helper()
	m, ok := r.Metrics[key]
	if !ok {
		t.Fatalf("%s: metric %q missing", r.ID, key)
	}
	p, ok := r.Paper[key]
	if !ok {
		t.Fatalf("%s: metric %q has no paper anchor", r.ID, key)
	}
	if p == 0 {
		if math.Abs(m) > rel {
			t.Errorf("%s: %s = %g, paper 0 (abs tol %g)", r.ID, key, m, rel)
		}
		return
	}
	if math.Abs(m-p)/math.Abs(p) > rel {
		t.Errorf("%s: %s = %.4g, paper %.4g (rel tol %.0f%%)", r.ID, key, m, p, rel*100)
	}
}

func TestWorkloadStatsMatchesPaper(t *testing.T) {
	r := lab.WorkloadStats()
	within(t, r, "video_request_share", 0.06)
	within(t, r, "p2p_request_share", 0.05)
	within(t, r, "unpopular_file_share", 0.02)
	within(t, r, "unpopular_request_share", 0.12)
	within(t, r, "highly_popular_request_share", 0.15)
}

func TestFileSizeCDFMatchesPaper(t *testing.T) {
	r := lab.FileSizeCDF()
	within(t, r, "median_mb", 0.30)
	within(t, r, "mean_mb", 0.18)
	within(t, r, "share_below_8mb", 0.25)
	if r.Metrics["max_gb"] > 4.001 {
		t.Errorf("max size %.2f GB exceeds 4 GB", r.Metrics["max_gb"])
	}
}

func TestFitExperimentsSEBeatsZipf(t *testing.T) {
	se := lab.SEFit()
	if se.Metrics["avg_relative_error"] >= se.Metrics["zipf_relative_error"] {
		t.Errorf("SE (%.3f) did not beat Zipf (%.3f)",
			se.Metrics["avg_relative_error"], se.Metrics["zipf_relative_error"])
	}
	zipf := lab.ZipfFit()
	if zipf.Metrics["zipf_a"] < 0.4 || zipf.Metrics["zipf_a"] > 2.0 {
		t.Errorf("Zipf slope %.3f outside plausible range", zipf.Metrics["zipf_a"])
	}
}

func TestCloudSpeedsShape(t *testing.T) {
	r := lab.CloudSpeeds()
	within(t, r, "pre_median_kbps", 0.8)
	within(t, r, "fetch_median_kbps", 0.35)
	// The headline claim: cloud fetching beats pre-downloading by 7-11x.
	if sp := r.Metrics["speedup_median"]; sp < 4 || sp > 25 {
		t.Errorf("median speedup = %.1f, want the 7-11x ballpark", sp)
	}
	if r.Metrics["fetch_max_mbps"] > 6.3 {
		t.Errorf("fetch max %.2f MBps exceeds the 50 Mbps ceiling", r.Metrics["fetch_max_mbps"])
	}
}

func TestCloudDelaysShape(t *testing.T) {
	r := lab.CloudDelays()
	within(t, r, "pre_median_min", 0.7)
	within(t, r, "fetch_median_min", 1.2)
	// End-to-end tracks fetch, not pre-download.
	if r.Metrics["e2e_median_min"] > r.Metrics["pre_median_min"]/2 {
		t.Errorf("e2e median %.0f should sit far below pre median %.0f",
			r.Metrics["e2e_median_min"], r.Metrics["pre_median_min"])
	}
}

func TestFailureVsPopularityShape(t *testing.T) {
	r := lab.FailureVsPopularity()
	within(t, r, "cache_hit_ratio", 0.06)
	within(t, r, "unpopular_failure", 0.45)
	within(t, r, "nocache_failure", 0.35)
	if r.Metrics["unpopular_failure"] <= r.Metrics["highly_popular_failure"] {
		t.Error("failure ratio must decrease with popularity")
	}
	if r.Metrics["nocache_failure"] <= r.Metrics["overall_failure"] {
		t.Error("removing the cache must raise the failure ratio")
	}
}

func TestBandwidthBurdenShape(t *testing.T) {
	r := lab.BandwidthBurden()
	if d := r.Metrics["peak_day"]; d < 5 {
		t.Errorf("burden peak on day %.0f, want late in the week", d)
	}
	within(t, r, "highly_popular_burden_share", 0.35)
	if rr := r.Metrics["rejected_fetch_share"]; rr > 0.06 {
		t.Errorf("rejected fetch share %.3f implausibly high", rr)
	}
}

func TestAPSpeedsAndDelaysShape(t *testing.T) {
	s := lab.APSpeeds()
	within(t, s, "median_kbps", 1.0)
	if s.Metrics["max_mbps"] > 2.51 {
		t.Errorf("AP speed max %.2f exceeds the ADSL ceiling", s.Metrics["max_mbps"])
	}
	d := lab.APDelays()
	within(t, d, "median_min", 0.8)
	// AP and cloud medians must be close (Figures 13-14's key point).
	if ratio := s.Metrics["median_kbps"] / s.Metrics["cloud_median_kbps"]; ratio < 0.5 || ratio > 2.2 {
		t.Errorf("AP/cloud speed median ratio %.2f, want ≈1", ratio)
	}
}

func TestAPFailuresMatchPaper(t *testing.T) {
	r := lab.APFailures()
	within(t, r, "overall_failure", 0.40)
	within(t, r, "unpopular_failure", 0.25)
	within(t, r, "cause_no_seeds", 0.12)
	if r.Metrics["cause_no_seeds"] < r.Metrics["cause_bad_server"] {
		t.Error("seed starvation must dominate the failure causes")
	}
}

// TestAPFailuresRenderIsStable: the cause table once ranged over a map, so
// two renders of one binary differed. A shared Lab memoizes the bench, so
// both calls see the same data and only the row order could differ.
func TestAPFailuresRenderIsStable(t *testing.T) {
	want := lab.APFailures().String()
	if n := strings.Count(want, "%\n"); n < 2 {
		t.Fatalf("cause table has %d rows; the order check needs at least two:\n%s", n, want)
	}
	for i := 0; i < 20; i++ {
		if got := lab.APFailures().String(); got != want {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, want)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	r := lab.DeviceFilesystem()
	for _, key := range []string{
		"hiwifi_sd_fat", "miwifi_sata_ext4",
		"newifi_flash_fat", "newifi_flash_ntfs", "newifi_flash_ext4",
		"newifi_uhdd_fat", "newifi_uhdd_ntfs", "newifi_uhdd_ext4",
	} {
		within(t, r, key+"_mbps", 0.10)
	}
	// The two qualitative signatures.
	if r.Metrics["newifi_flash_ntfs_mbps"] >= r.Metrics["newifi_flash_ext4_mbps"]/2 {
		t.Error("NTFS must be less than half of EXT4 on the flash drive")
	}
	if r.Metrics["newifi_flash_ntfs_iowait"] >= r.Metrics["newifi_flash_ext4_iowait"] {
		t.Error("NTFS must show lower iowait (CPU-bound) than EXT4 on flash")
	}
}

func TestODRBottlenecksMatchPaper(t *testing.T) {
	r := lab.ODRBottlenecks()
	// B1: 28% -> 9%.
	within(t, r, "b1_baseline", 0.35)
	if r.Metrics["b1_odr"] > 0.15 {
		t.Errorf("ODR impeded ratio %.3f, want ≈0.09", r.Metrics["b1_odr"])
	}
	if r.Metrics["b1_odr"] >= r.Metrics["b1_baseline"]/2 {
		t.Error("ODR must at least halve the impeded ratio")
	}
	// B2: burden reduced ~35%.
	within(t, r, "b2_burden_reduction", 0.45)
	// B3: 42% -> 13%.
	within(t, r, "b3_odr", 0.6)
	if r.Metrics["b3_odr"] >= r.Metrics["b3_baseline"]/2 {
		t.Error("ODR must at least halve unpopular failures")
	}
	// B4: almost completely avoided.
	if r.Metrics["b4_odr"] > 0.02 {
		t.Errorf("ODR storage-bound ratio %.4f, want ≈0", r.Metrics["b4_odr"])
	}
}

func TestODRFetchCDFMatchesPaper(t *testing.T) {
	r := lab.ODRFetchCDF()
	if r.Metrics["odr_median_kbps"] <= r.Metrics["baseline_median_kbps"] {
		t.Error("ODR median fetch speed must beat the baseline")
	}
	if r.Metrics["odr_max_mbps"] > 2.51 {
		t.Errorf("ODR max fetch %.2f MBps exceeds the environment cap", r.Metrics["odr_max_mbps"])
	}
}

func TestAblationsShowSignalValue(t *testing.T) {
	r := lab.Ablations()
	if r.Metrics["nopop_cloud_bytes"] <= r.Metrics["full_cloud_bytes"] {
		t.Error("popularity ablation must raise cloud bytes")
	}
	if r.Metrics["noisp_impeded"] <= r.Metrics["full_impeded"] {
		t.Error("ISP ablation must raise impeded ratio")
	}
	if r.Metrics["nostorage_b4_exposed"] <= r.Metrics["full_b4_exposed"] {
		t.Error("storage ablation must raise Bottleneck 4 exposure")
	}
}

func TestAllAndByID(t *testing.T) {
	reports := lab.All()
	if len(reports) != 22 {
		t.Fatalf("All returned %d reports", len(reports))
	}
	seen := map[string]bool{}
	for _, r := range reports {
		if seen[r.ID] {
			t.Errorf("duplicate report ID %s", r.ID)
		}
		seen[r.ID] = true
		if len(r.Lines)+len(r.Metrics) == 0 {
			t.Errorf("report %s is empty", r.ID)
		}
		if !strings.Contains(r.String(), r.Title) {
			t.Errorf("report %s String() lacks its title", r.ID)
		}
		if byID := lab.ByID(r.ID); byID == nil || byID.ID != r.ID {
			t.Errorf("ByID(%s) failed", r.ID)
		}
	}
	if lab.ByID("nope") != nil {
		t.Error("ByID accepted junk")
	}
}

func TestNewLabPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLab(Config{})
}

// §7: ODR must dominate the hybrid approach on cloud bytes and
// availability delay while matching its success rate.
func TestHybridComparison(t *testing.T) {
	r := lab.HybridComparison()
	if r.Metrics["odr_cloud_bytes"] >= r.Metrics["hybrid_cloud_bytes"] {
		t.Error("ODR should use less cloud bandwidth than the hybrid approach")
	}
	if r.Metrics["odr_avail_nothot_min"] >= r.Metrics["hybrid_avail_nothot_min"] {
		t.Error("ODR should make cloud-served files available sooner than the hybrid approach")
	}
	if r.Metrics["odr_b4_exposed"] >= r.Metrics["hybrid_b4_exposed"] &&
		r.Metrics["hybrid_b4_exposed"] > 0 {
		t.Error("ODR should expose fewer tasks to Bottleneck 4 than the hybrid approach")
	}
	// Both lean on the cloud for success, so failure ratios are close.
	if math.Abs(r.Metrics["odr_failure"]-r.Metrics["hybrid_failure"]) > 0.08 {
		t.Errorf("failure gap too large: ODR %.3f vs hybrid %.3f",
			r.Metrics["odr_failure"], r.Metrics["hybrid_failure"])
	}
}

// The pool sweep must show hit ratio rising monotonically with capacity
// and failure falling, bracketing the paper's full-pool anchors.
func TestPoolSweep(t *testing.T) {
	r := lab.PoolSweep()
	hits := []float64{
		r.Metrics["hit_pool_0.1pct"],
		r.Metrics["hit_pool_1pct"],
		r.Metrics["hit_pool_5pct"],
		r.Metrics["hit_pool_25pct"],
		r.Metrics["hit_pool_100pct"],
	}
	for i := 1; i < len(hits); i++ {
		if hits[i]+0.02 < hits[i-1] {
			t.Errorf("hit ratio not monotone: %v", hits)
		}
	}
	if hits[len(hits)-1] < 0.80 {
		t.Errorf("full-pool hit ratio %.3f, want ≈0.89", hits[len(hits)-1])
	}
	if r.Metrics["failure_pool_0.1pct"] <= r.Metrics["failure_pool_100pct"] {
		t.Error("a starved pool must fail more often than the full pool")
	}
}

// §6.1 extension: LEDBAT must remove the peak overload that a greedy
// background transfer causes, while keeping most of its throughput.
func TestLEDBATSmoothing(t *testing.T) {
	r := lab.LEDBATSmoothing()
	if r.Metrics["greedy_peak_util"] <= 1.0 {
		t.Fatalf("greedy policy should overload the link at peak, got %.2f",
			r.Metrics["greedy_peak_util"])
	}
	if r.Metrics["ledbat_peak_util"] >= r.Metrics["greedy_peak_util"] {
		t.Error("LEDBAT should lower the peak utilization")
	}
	if r.Metrics["ledbat_peak_util"] > 1.1 {
		t.Errorf("LEDBAT peak util %.2f still badly overloaded", r.Metrics["ledbat_peak_util"])
	}
	if r.Metrics["ledbat_bg_gb"] < 0.5*r.Metrics["greedy_bg_gb"] {
		t.Errorf("LEDBAT delivered only %.1f GB vs greedy %.1f GB",
			r.Metrics["ledbat_bg_gb"], r.Metrics["greedy_bg_gb"])
	}
}

// The streaming input path must reproduce the materialized one exactly —
// the diffs are zero, not merely within tolerance.
func TestStreamEquivalenceExact(t *testing.T) {
	r := lab.StreamEquivalence()
	if d := r.Metrics["max_abs_diff"]; d != 0 {
		t.Errorf("streaming input path diverged from the materialized one: max |diff| = %g\n%s", d, r)
	}
	if r.Metrics["tasks_diff"] != 0 {
		t.Errorf("task counts differ:\n%s", r)
	}
}

// The regenerated CDFs must sit close to the paper's published anchor
// points in Kolmogorov-Smirnov distance.
func TestKSShapeMatch(t *testing.T) {
	f5 := lab.FileSizeCDF()
	if ks := f5.Metrics["ks_to_paper_anchor"]; ks <= 0 || ks > 0.15 {
		t.Errorf("file-size KS to paper anchor = %.3f, want < 0.15", ks)
	}
	f8 := lab.CloudSpeeds()
	if ks := f8.Metrics["fetch_ks_to_paper_anchor"]; ks <= 0 || ks > 0.25 {
		t.Errorf("fetch-speed KS to paper anchor = %.3f, want < 0.25", ks)
	}
}

// EXP-W's generator leg replays the week through msTruncSource; the
// wrapper must keep announcing the stream's length (workload.Sizer), or
// the engine materialises all 4.1M requests before replaying them.
func TestMsTruncSourceForwardsLength(t *testing.T) {
	st, err := workload.GenerateStream(workload.DefaultConfig(300, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	var src workload.RequestSource = &msTruncSource{src: st.RequestsWorkers(2)}
	sz, ok := src.(workload.Sizer)
	if !ok {
		t.Fatal("msTruncSource is not a workload.Sizer")
	}
	if got, want := sz.TotalRequests(), st.TotalRequests(); got != want {
		t.Fatalf("msTruncSource announces %d requests over a %d-request generator stream", got, want)
	}
	if _, err := workload.Collect(src); err != nil { // drain: the parallel generator owns goroutines
		t.Fatal(err)
	}
}
