// Apbench reproduces the paper's §5 smart-AP study: it replays a
// Unicom-sampled workload across the three benchmarked APs (HiWiFi,
// MiWiFi, Newifi), prints per-device results, and then reruns the Table 2
// storage experiment — swapping Newifi's storage device and filesystem to
// show Bottleneck 4 appear and disappear.
package main

import (
	"flag"
	"fmt"
	"log"

	"odr"
	"odr/internal/replay"
	"odr/internal/smartap"
	"odr/internal/storage"
)

func main() {
	files := flag.Int("files", 20000, "unique files in the synthetic week")
	sampleN := flag.Int("sample", 1000, "replay sample size")
	seed := flag.Uint64("seed", 11, "random seed")
	flag.Parse()

	tr, err := odr.GenerateTrace(odr.DefaultTraceConfig(*files, *seed))
	if err != nil {
		log.Fatal(err)
	}
	sample := odr.UnicomSample(tr, *sampleN, *seed)
	aps := odr.BenchmarkedAPs()
	bench, err := odr.RunAPBenchmarkStream(odr.NewSliceSource(sample), aps, *seed, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("replayed %d Unicom requests across %d APs\n\n", len(sample), len(aps))
	fmt.Printf("%-14s %8s %10s %12s %12s\n", "AP", "tasks", "failure%", "med KBps", "mean iowait")
	perAP := map[string][]replay.APTask{}
	for _, task := range bench.Tasks {
		perAP[task.APName] = append(perAP[task.APName], task)
	}
	for _, ap := range aps {
		name := ap.Spec().Name
		tasks := perAP[name]
		var fails int
		var rates []float64
		var iowait float64
		var ok int
		for _, t := range tasks {
			if !t.Result.Success {
				fails++
				continue
			}
			ok++
			rates = append(rates, t.Result.Rate)
			iowait += t.Result.IOWait
		}
		fmt.Printf("%-14s %8d %9.1f%% %12.1f %11.1f%%\n",
			name, len(tasks), 100*float64(fails)/float64(len(tasks)),
			median(rates)/1024, 100*iowait/float64(ok))
	}
	fmt.Printf("\noverall: failure %.1f%% (paper 16.8%%), unpopular failure %.1f%% (paper 42%%)\n",
		bench.FailureRatio()*100, bench.UnpopularFailureRatio()*100)

	// Table 2 on demand: Newifi storage swaps, unthrottled.
	fmt.Println("\nNewifi max pre-download speed by storage configuration (netcap 2.37 MBps):")
	n := smartap.NewNewifi()
	const netCap = 2.37 * 1024 * 1024
	configs := []storage.Device{
		{Type: storage.USBFlash, FS: storage.FAT},
		{Type: storage.USBFlash, FS: storage.NTFS},
		{Type: storage.USBFlash, FS: storage.EXT4},
		{Type: storage.USBHDD, FS: storage.FAT},
		{Type: storage.USBHDD, FS: storage.NTFS},
		{Type: storage.USBHDD, FS: storage.EXT4},
	}
	for _, d := range configs {
		if err := n.SetDevice(d); err != nil {
			log.Fatal(err)
		}
		speed := n.MaxPreDownloadSpeed(netCap)
		wm := storage.WriteModel{CPUGHz: n.Spec().CPUGHz}
		fmt.Printf("  %-22s %6.2f MBps  iowait %5.1f%%\n",
			d.String(), speed/(1024*1024), 100*wm.IOWait(d, speed))
	}
	up, _ := storage.RecommendedUpgrade(storage.Device{Type: storage.USBFlash, FS: storage.NTFS})
	fmt.Printf("\nrecommended upgrade for the stock NTFS flash drive: %s\n", up)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}
