package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

// pct returns the q-quantile of ds by the nearest-rank rule (the smallest
// sample with at least ⌈q·n⌉ samples at or below it), or 0 for no samples.
func pct(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rangeOf formats the median of xs with its smallest and largest value.
func rangeOf(xs []float64) string {
	return fmt.Sprintf("%.4g (%.4g–%.4g)", median(xs), slices.Min(xs), slices.Max(xs))
}

// runtimeSnap is the Go runtime's view of the whole benchmark process at
// one instant: the clients and every daemon share it.
type runtimeSnap struct {
	at         time.Time
	cpu        time.Duration // user+system CPU of the process
	gcCPU      float64       // seconds
	allocObjs  uint64
	allocBytes uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func takeRuntime() runtimeSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return runtimeSnap{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:      s[0].Value.Float64(),
		allocObjs:  s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
	}
}

// skip moves the window start a forward past the interval [from, to], so
// the window [a, b] leaves out that interval's time, CPU and allocations.
func (a runtimeSnap) skip(from, to runtimeSnap) runtimeSnap {
	a.at = a.at.Add(to.at.Sub(from.at))
	a.cpu += to.cpu - from.cpu
	a.gcCPU += to.gcCPU - from.gcCPU
	a.allocObjs += to.allocObjs - from.allocObjs
	a.allocBytes += to.allocBytes - from.allocBytes
	return a
}

// runtimeMetrics fills the runtime.* per-layer metrics for the window
// [a, b] in which ops operations completed.
func runtimeMetrics(out map[string]float64, a, b runtimeSnap, ops int64) {
	wall := b.at.Sub(a.at).Seconds()
	cpu := (b.cpu - a.cpu).Seconds()
	out["runtime.cpu_busy_frac"] = ratio(cpu, wall*float64(runtime.NumCPU()))
	out["runtime.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, cpu)
	out["runtime.allocs_per_op"] = ratio(float64(b.allocObjs-a.allocObjs), float64(ops))
	out["runtime.alloc_bytes_per_op"] = ratio(float64(b.allocBytes-a.allocBytes), float64(ops))
}

// heapObjectsBytes reads the bytes of live and not-yet-swept heap objects.
func heapObjectsBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapInUseMB collects garbage and returns the live heap in MiB.
func heapInUseMB() float64 {
	runtime.GC()
	runtime.GC()
	return float64(heapObjectsBytes()) / (1 << 20)
}
