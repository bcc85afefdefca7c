package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+sys CPU time. Steal on a shared VM pauses
// the process without charging it CPU time, so throughput per CPU-second
// repeats far better than throughput per wall-second.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// stamp is one reading of both clocks.
type stamp struct {
	wall time.Time
	cpu  float64
}

func now() stamp { return stamp{wall: time.Now(), cpu: cpuSeconds()} }

// cost is the wall and CPU time between two stamps.
type cost struct {
	wall, cpu float64
}

func since(s stamp) cost {
	e := now()
	return cost{wall: e.wall.Sub(s.wall).Seconds(), cpu: e.cpu - s.cpu}
}

func (c cost) add(o cost) cost { return cost{wall: c.wall + o.wall, cpu: c.cpu + o.cpu} }

// settle collects the previous call's garbage outside any timed section, so
// every measured call starts from the same heap state and pays only for the
// collections its own allocations trigger.
func settle() { runtime.GC() }

// heapPeak tracks the peak live heap — the bytes the last completed GC found
// reachable — by polling the runtime's gauge. Polling every 2 ms sees every
// collection of the measured calls, which are at least milliseconds apart.
type heapPeak struct {
	mu    sync.Mutex
	peak  map[string]uint64
	route atomic.Pointer[string]
	stop  chan struct{}
	done  chan struct{}
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{peak: map[string]uint64{}, stop: make(chan struct{}), done: make(chan struct{})}
	idle := ""
	h.route.Store(&idle)
	go h.loop()
	return h
}

func (h *heapPeak) loop() {
	defer close(h.done)
	sample := []metrics.Sample{{Name: liveHeapMetric}}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
		}
		metrics.Read(sample)
		h.observe(*h.route.Load(), sample[0].Value.Uint64())
	}
}

func (h *heapPeak) observe(route string, live uint64) {
	if route == "" {
		return
	}
	h.mu.Lock()
	if live > h.peak[route] {
		h.peak[route] = live
	}
	h.mu.Unlock()
}

// enter attributes the following samples to route ("" = not measured). The
// caller settles the heap first, so a reading left over from the previous
// route's last collection is not charged to this one.
func (h *heapPeak) enter(route string) { h.route.Store(&route) }

// mib returns route's peak in MiB.
func (h *heapPeak) mib(route string) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak[route]) / (1 << 20)
}

func (h *heapPeak) close() {
	close(h.stop)
	<-h.done
}

// median returns the median of xs, the mean of the middle two for an even
// count (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by the nearest-rank method on a
// sorted copy, so every reported percentile is one measured sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// procStat is the host's aggregate CPU counters from /proc/stat; the share
// of steal between two readings says how much of the host's CPU time the
// hypervisor took away over a run.
type procStat struct{ steal, total uint64 }

func readProcStat() (procStat, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return procStat{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return procStat{}, false
	}
	var ps procStat
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return procStat{}, false
		}
		// guest and guest_nice (fields 9 and 10) are already in user/nice.
		if i < 8 {
			ps.total += v
		}
		if i == 7 {
			ps.steal = v
		}
	}
	return ps, true
}

func stealPct(a, b procStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}
