package server

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/tipprof/tip/internal/fleet"
)

// histBuckets are the shared latency buckets (seconds) for the capture and
// replay phase histograms: captures of scaled benchmarks land in the
// sub-second range, full-scale suites in the tens of seconds.
var histBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

// histogram is a fixed-bucket Prometheus histogram.
type histogram struct {
	counts []uint64 // cumulative at write time; stored per-bucket here
	sum    float64
	count  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(histBuckets))}
}

func (h *histogram) observe(v float64) {
	for i, ub := range histBuckets {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.count++
}

// write renders the histogram's samples in Prometheus text exposition
// format.
func (h *histogram) write(p fleet.Prom, name string) {
	cum := uint64(0)
	for i, ub := range histBuckets {
		cum += h.counts[i]
		p.Sample(fmt.Sprintf("%s_bucket{le=\"%g\"}", name, ub), cum)
	}
	p.Sample(name+`_bucket{le="+Inf"}`, h.count)
	p.Sample(name+"_sum", h.sum)
	p.Sample(name+"_count", h.count)
}

// metrics aggregates the daemon's counters. Gauges (queue depth, running
// jobs, cache occupancy) are read live from server state at scrape time.
type metrics struct {
	mu             sync.Mutex
	jobsTotal      map[string]uint64 // by terminal state
	accepted       uint64
	rejected       uint64 // 429 admission rejections
	captureSeconds *histogram
	replaySeconds  *histogram
	simCycles      uint64 // cycles simulated by cache-miss captures
	replayCycles   uint64 // cycles streamed through replays
	simulations    uint64 // full cycle-level capture simulations performed
	lastCPS        float64
}

func newMetrics() *metrics {
	return &metrics{
		jobsTotal:      map[string]uint64{},
		captureSeconds: newHistogram(),
		replaySeconds:  newHistogram(),
	}
}

func (m *metrics) jobAccepted() {
	m.mu.Lock()
	m.accepted++
	m.mu.Unlock()
}

func (m *metrics) jobRejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// simulationRan counts one full cycle-level capture simulation — the thing
// the capture cache and the shared store exist to avoid. The fleet CI gate
// asserts a repeated key never moves this counter on any node.
func (m *metrics) simulationRan() {
	m.mu.Lock()
	m.simulations++
	m.mu.Unlock()
}

func (m *metrics) simulationCount() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.simulations
}

// jobFinished records a terminal transition. captureS/replayS are the phase
// durations (zero for jobs that never ran), cycles the simulated cycle count
// of the run, simulated whether the capture phase actually simulated (cache
// miss) rather than hit the cache.
func (m *metrics) jobFinished(state string, captureS, replayS float64, cycles uint64, simulated bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsTotal[state]++
	if state != stateDone {
		return
	}
	m.captureSeconds.observe(captureS)
	m.replaySeconds.observe(replayS)
	if simulated {
		m.simCycles += cycles
	}
	m.replayCycles += cycles
	if total := captureS + replayS; total > 0 {
		m.lastCPS = float64(cycles) / total
	}
}

// gauges is the live server state sampled at scrape time.
type gauges struct {
	queueDepth   int
	running      int
	workers      int
	draining     bool
	cacheHits    uint64
	cacheMisses  uint64
	cacheEntries int
	cacheBytes   uint64
	store        bool
	storeHits    uint64
	storeMisses  uint64
	storePuts    uint64
}

// writeProm renders the full exposition page.
func (m *metrics) writeProm(w io.Writer, g gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := fleet.Prom{W: w}

	p.Family("tipd_jobs_total", "counter", "Terminal job transitions by state.")
	states := make([]string, 0, len(m.jobsTotal))
	for s := range m.jobsTotal {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		p.Sample(fmt.Sprintf("tipd_jobs_total{state=%q}", s), m.jobsTotal[s])
	}
	p.Metric("tipd_jobs_accepted_total", "counter", "Jobs admitted to the queue.", m.accepted)
	p.Metric("tipd_jobs_rejected_total", "counter", "Submissions refused with 429 (queue saturated).", m.rejected)

	p.Metric("tipd_queue_depth", "gauge", "Jobs waiting in the admission queue.", g.queueDepth)
	p.Metric("tipd_jobs_running", "gauge", "Jobs currently executing on the worker pool.", g.running)
	p.Metric("tipd_workers", "gauge", "Size of the worker pool.", g.workers)
	p.Metric("tipd_draining", "gauge", "Whether the daemon is shutting down.", boolGauge(g.draining))

	p.Metric("tipd_capture_cache_hits_total", "counter", "Jobs served from a cached capture (including singleflight-shared simulations).", g.cacheHits)
	p.Metric("tipd_capture_cache_misses_total", "counter", "Jobs that had to simulate.", g.cacheMisses)
	ratio := 0.0
	if total := g.cacheHits + g.cacheMisses; total > 0 {
		ratio = float64(g.cacheHits) / float64(total)
	}
	p.Metric("tipd_capture_cache_hit_ratio", "gauge", "Fraction of capture lookups served from cache.", ratio)
	p.Metric("tipd_capture_cache_entries", "gauge", "Captures currently cached.", g.cacheEntries)
	p.Metric("tipd_capture_cache_bytes", "gauge", "Encoded bytes held by the capture cache.", g.cacheBytes)

	p.Metric("tipd_simulations_total", "counter", "Full cycle-level capture simulations performed (jobs not served by cache or store).", m.simulations)
	if g.store {
		p.Metric("tipd_store_hits_total", "counter", "Capture-cache misses served from the shared store.", g.storeHits)
		p.Metric("tipd_store_misses_total", "counter", "Shared-store lookups that found nothing usable.", g.storeMisses)
		p.Metric("tipd_store_puts_total", "counter", "Captures published to the shared store.", g.storePuts)
	}

	p.Family("tipd_capture_seconds", "histogram", "Capture-phase duration of completed jobs (cache hits observe ~0).")
	m.captureSeconds.write(p, "tipd_capture_seconds")
	p.Family("tipd_replay_seconds", "histogram", "Replay-phase duration of completed jobs.")
	m.replaySeconds.write(p, "tipd_replay_seconds")

	p.Metric("tipd_simulated_cycles_total", "counter", "Core cycles simulated by cache-miss captures.", m.simCycles)
	p.Metric("tipd_replayed_cycles_total", "counter", "Core cycles streamed through profiler replays.", m.replayCycles)
	p.Metric("tipd_cycles_per_second", "gauge", "Simulated-cycle throughput of the most recent completed job.", m.lastCPS)
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}
