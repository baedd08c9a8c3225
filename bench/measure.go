package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of vs (the mean of the middle two when even).
// vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileSorted is the nearest-rank quantile of an ascending slice: the
// smallest sample with at least q of the samples at or below it. Raw
// samples only — no e2e number is ever read off a log₂ histogram.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// rusage is the CPU seconds (user+system) and peak resident set of
// either this process or the children it has waited for.
type rusage struct {
	cpuSeconds float64
	peakRSSMB  float64
}

func getrusage(who int) rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return rusage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return rusage{
		cpuSeconds: tv(ru.Utime) + tv(ru.Stime),
		peakRSSMB:  float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

func selfUsage() rusage     { return getrusage(syscall.RUSAGE_SELF) }
func childrenUsage() rusage { return getrusage(syscall.RUSAGE_CHILDREN) }

// procClockTick is USER_HZ, the unit of /proc/PID/stat's CPU columns. It
// is 100 on every Linux architecture Go supports.
const procClockTick = 100

// procUsage reads another live process's CPU seconds and peak RSS from
// /proc: the only way to watch a server that must keep running.
func procUsage(pid int) (rusage, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return rusage{}, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return rusage{}, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return rusage{}, fmt.Errorf("/proc/%d/stat: bad CPU columns", pid)
	}
	u := rusage{cpuSeconds: (ut + st) / procClockTick}

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return rusage{}, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return rusage{}, fmt.Errorf("/proc/%d/status: %q", pid, line)
			}
			u.peakRSSMB = kb / 1024
		}
	}
	return u, nil
}
