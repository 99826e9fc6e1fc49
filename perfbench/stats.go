package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule;
// xs is sorted in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is quantile(xs, 0.5) on a copy, so xs keeps its order.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ratio divides, reading 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeSample is a point-in-time reading of the Go runtime's
// allocation and GC CPU counters.
type runtimeSample struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	u64 := func(s metrics.Sample) uint64 {
		if s.Value.Kind() == metrics.KindUint64 {
			return s.Value.Uint64()
		}
		return 0
	}
	f64 := func(s metrics.Sample) float64 {
		if s.Value.Kind() == metrics.KindFloat64 {
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		mallocs:    u64(samples[0]),
		allocBytes: u64(samples[1]),
		gcCPU:      f64(samples[2]),
		totalCPU:   f64(samples[3]),
	}
}

// settle collects garbage left by set-up so that it is not charged to
// the timed window that follows.
func settle() {
	runtime.GC()
}
