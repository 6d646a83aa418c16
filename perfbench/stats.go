package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
)

// medianF is the median of xs, 0 for none.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the mean of xs, 0 for none.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tail returns the highest percentile of xs that has at least ten samples
// above it, with its value and 1-based rank; ok is false with ten or
// fewer samples.
func tail(xs []float64) (pct, value float64, rank int, ok bool) {
	rank = len(xs) - 10
	if rank < 1 {
		return 0, 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return 100 * float64(rank) / float64(len(s)), s[rank-1], rank, true
}

// procStatusKB reads one "Key: N kB" field of /proc/self/status.
func procStatusKB(key string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", key)
}

// resetPeakRSS returns freed memory to the kernel and restarts the peak
// resident set (VmHWM) from the current one, so that the peak covers
// only what follows: the timed learns, not the warm stores' preparation.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: the peak resident set covers the whole run:", err)
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	kb, err := procStatusKB("VmHWM")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 0
	}
	return kb / 1024
}

// environment describes the machine a run measured on.
func environment() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q kernel=%s udp=loopback-127.0.0.1(no real link)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, kernel)
}
