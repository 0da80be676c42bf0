package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the q-quantile of xs by the nearest-rank rule; 0 for no
// values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

// repeat runs pass once, and again while the projected end of the next
// pass (at the median pass time so far) stays within budget.  It returns
// every pass's wall time in seconds.
func repeat(budget time.Duration, pass func() (time.Duration, error)) ([]float64, error) {
	var walls []float64
	start := time.Now()
	for {
		d, err := pass()
		if err != nil {
			return walls, err
		}
		walls = append(walls, d.Seconds())
		next := time.Duration(median(walls) * float64(time.Second))
		if time.Since(start)+next > budget {
			return walls, nil
		}
	}
}

func secondsDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// timed collects garbage, then times fn: every timed phase starts from the
// same heap state.
func timed(fn func() error) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// memStats is the runtime's GC and allocation counters at one instant.
type memStats struct {
	gcs     uint32
	pauseNs uint64
	alloc   uint64
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{gcs: m.NumGC, pauseNs: m.PauseTotalNs, alloc: m.TotalAlloc}
}

// recordRuntime stores the GC count, GC pause and allocation volume
// between two readings as the runtime.* per-layer metrics.
func recordRuntime(o *outcome, before, after memStats) {
	o.metrics["runtime.gc_count"] = float64(after.gcs - before.gcs)
	o.metrics["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	o.metrics["runtime.alloc_mb"] = float64(after.alloc-before.alloc) / 1e6
}

// freeMemory returns freed memory to the OS, so that garbage left by one
// set-up is not still resident, and counted, during the next.
func freeMemory() { debug.FreeOSMemory() }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM, in
// kB) as MB (10^6 bytes), or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// logPasses reports every set-up and pass time, the samples behind the
// medians.
func logPasses(cfg config, workload string, setups, walls []float64) {
	fmt.Fprintf(cfg.log, "%s: seed %d, set-ups %.3f s, %d passes %.3f s\n", workload, cfg.seed, setups, len(walls), walls)
}
