package experiments

import (
	"sort"

	"odr/internal/replay"
	"odr/internal/smartap"
	"odr/internal/stats"
	"odr/internal/storage"
)

// APHardware regenerates Table 1: the hardware configurations of the three
// benchmarked smart APs.
func (l *Lab) APHardware() *Report {
	r := newReport("T1", "Table 1: hardware configurations of the smart APs")
	r.addf("%-12s %-10s %-8s %-22s %-18s %8s", "AP", "CPU", "RAM", "storage", "WiFi", "price")
	for _, ap := range smartap.Benchmarked() {
		s := ap.Spec()
		r.addf("%-12s %6.2fGHz %5dMB %-22s %-18s %7.0f$",
			s.Name, s.CPUGHz, s.RAMMB, s.DefaultDevice.String(), s.WiFi, s.PriceUSD)
	}
	r.metric("devices", 3, 3)
	return r
}

// APSpeeds regenerates Figure 13: the CDF of smart-AP pre-downloading
// speeds against the cloud's.
func (l *Lab) APSpeeds() *Report {
	r := newReport("F13", "Figure 13: CDF of smart APs' pre-downloading speeds")
	b := l.APBench()
	speeds := b.Speeds()
	cdfLines(r, "AP pre-dl", "KBps", speeds, kb)

	// The cloud comparison curve, over the same popularity mix.
	cloudPre, _ := l.cloudFreshSpeedAndDelay()
	r.addf("cloud fresh-download median %.1f KBps (comparison curve)", cloudPre/kb)

	okSpeeds := successSpeeds(b)
	r.metric("median_kbps", okSpeeds.Median()/kb, 27)
	r.metric("mean_kbps", okSpeeds.Mean()/kb, 64)
	r.metric("max_mbps", speeds.Max()/mb, 2.37)
	r.metric("cloud_median_kbps", cloudPre/kb, 25)
	return r
}

// APDelays regenerates Figure 14: the CDF of smart-AP pre-downloading
// delay against the cloud's.
func (l *Lab) APDelays() *Report {
	r := newReport("F14", "Figure 14: CDF of smart APs' pre-downloading delay")
	b := l.APBench()
	delays := b.Delays()
	cdfLines(r, "AP pre-dl", "min", delays, 1)
	_, cloudDelay := l.cloudFreshSpeedAndDelay()
	r.addf("cloud fresh-download median delay %.0f min (comparison curve)", cloudDelay)
	r.metric("median_min", delays.Median(), 77)
	r.metric("mean_min", delays.Mean(), 402)
	r.metric("cloud_median_min", cloudDelay, 82)
	return r
}

// cloudFreshSpeedAndDelay returns the week simulation's successful
// fresh-download median speed (bytes/s) and delay (minutes) — the
// comparison curves in Figures 13-14.
func (l *Lab) cloudFreshSpeedAndDelay() (float64, float64) {
	var speeds, delays []float64
	for _, rec := range l.Week().Records() {
		if rec.CacheHit || !rec.PreSuccess {
			continue
		}
		speeds = append(speeds, rec.PreRate)
		delays = append(delays, rec.PreDelay().Minutes())
	}
	return medianOf(speeds), medianOf(delays)
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}

// successSpeeds collects pre-download speeds over successful AP tasks
// (the quantity whose median/mean the Figure 13 caption quotes).
func successSpeeds(b *replay.APBench) *stats.Sample {
	s := stats.NewSample(len(b.Tasks))
	for _, t := range b.Tasks {
		if t.Result.Success {
			s.Add(t.Result.Rate)
		}
	}
	return s
}

// APFailures regenerates the §5.2 failure analysis: overall and
// unpopular-file failure ratios and the failure-cause taxonomy.
func (l *Lab) APFailures() *Report {
	r := newReport("APFAIL", "§5.2: smart-AP pre-downloading failure analysis")
	b := l.APBench()
	r.metric("overall_failure", b.FailureRatio(), 0.168)
	r.metric("unpopular_failure", b.UnpopularFailureRatio(), 0.42)
	causes := b.CauseBreakdown()
	r.metric("cause_no_seeds", causes["no-seeds"], 0.86)
	r.metric("cause_bad_server", causes["bad-server"], 0.10)
	r.metric("cause_client_bug", causes["client-bug"], 0.04)
	r.addf("failures by cause:")
	names := make([]string, 0, len(causes))
	for cause := range causes {
		names = append(names, cause)
	}
	sort.Strings(names) // map order would differ between two runs of one binary
	for _, cause := range names {
		r.addf("  %-12s %5.1f%%", cause, causes[cause]*100)
	}
	return r
}

// DeviceFilesystem regenerates Table 2: max pre-downloading speed and
// iowait ratio for every device x filesystem combination the paper
// benchmarks, by replaying unthrottled top-popularity downloads through
// the storage write model.
func (l *Lab) DeviceFilesystem() *Report {
	r := newReport("T2", "Table 2: max pre-downloading speeds and iowait ratios")
	const netCap = 2.37 * mb

	rows := []struct {
		name string
		cpu  float64
		dev  storage.Device
		key  string
	}{
		{"HiWiFi + SD card", 0.58, storage.Device{Type: storage.SDCard, FS: storage.FAT}, "hiwifi_sd_fat"},
		{"MiWiFi + SATA HDD", 1.0, storage.Device{Type: storage.SATAHDD, FS: storage.EXT4}, "miwifi_sata_ext4"},
		{"Newifi + USB flash (FAT)", 0.58, storage.Device{Type: storage.USBFlash, FS: storage.FAT}, "newifi_flash_fat"},
		{"Newifi + USB flash (NTFS)", 0.58, storage.Device{Type: storage.USBFlash, FS: storage.NTFS}, "newifi_flash_ntfs"},
		{"Newifi + USB flash (EXT4)", 0.58, storage.Device{Type: storage.USBFlash, FS: storage.EXT4}, "newifi_flash_ext4"},
		{"Newifi + USB HDD (FAT)", 0.58, storage.Device{Type: storage.USBHDD, FS: storage.FAT}, "newifi_uhdd_fat"},
		{"Newifi + USB HDD (NTFS)", 0.58, storage.Device{Type: storage.USBHDD, FS: storage.NTFS}, "newifi_uhdd_ntfs"},
		{"Newifi + USB HDD (EXT4)", 0.58, storage.Device{Type: storage.USBHDD, FS: storage.EXT4}, "newifi_uhdd_ext4"},
	}
	paperSpeed := map[string]float64{
		"hiwifi_sd_fat": 2.37, "miwifi_sata_ext4": 2.37,
		"newifi_flash_fat": 2.12, "newifi_flash_ntfs": 0.93, "newifi_flash_ext4": 2.13,
		"newifi_uhdd_fat": 2.37, "newifi_uhdd_ntfs": 1.13, "newifi_uhdd_ext4": 2.37,
	}
	paperIOWait := map[string]float64{
		"hiwifi_sd_fat": 0.421, "miwifi_sata_ext4": 0.297,
		"newifi_flash_fat": 0.663, "newifi_flash_ntfs": 0.151, "newifi_flash_ext4": 0.55,
		"newifi_uhdd_fat": 0.42, "newifi_uhdd_ntfs": 0.098, "newifi_uhdd_ext4": 0.174,
	}

	r.addf("%-28s %14s %10s", "configuration", "max speed", "iowait")
	for _, row := range rows {
		wm := storage.WriteModel{CPUGHz: row.cpu}
		speed := wm.MaxSpeed(row.dev, netCap)
		iowait := wm.IOWait(row.dev, speed)
		r.addf("%-28s %11.2f MBps %8.1f%%", row.name, speed/mb, iowait*100)
		r.metric(row.key+"_mbps", speed/mb, paperSpeed[row.key])
		r.metric(row.key+"_iowait", iowait, paperIOWait[row.key])
	}
	return r
}
