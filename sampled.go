package tip

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"github.com/tipprof/tip/internal/trace"
)

// SampledRunStats describes one sampled run's schedule: how much of the
// execution was simulated in detail, how much was fast-forwarded, and what
// the stitched cycle estimate is made of. All cycle figures use the core's
// internal clock except MeasuredCycles, which is the contiguous renumbered
// clock the profilers observed.
type SampledRunStats struct {
	// Windows is the number of measurement windows run, including a
	// trailing partial window at end of program.
	Windows uint64
	// MeasuredCycles is the profiler-visible run length (the Finish
	// total): last measured commit cycle + 1 on the renumbered clock.
	MeasuredCycles uint64
	// DetailedCycles is the cycle-level simulation's run length
	// (measurement windows plus warmup prefixes), counted exactly as a
	// full run would: last detailed commit cycle + 1.
	DetailedCycles uint64
	// WarmupCyclesRun is the detailed cycles simulated but hidden from
	// the profilers as post-fast-forward warmup.
	WarmupCyclesRun uint64
	// FFInstructions is the number of instructions executed functionally
	// (no timing) between windows.
	FFInstructions uint64
	// FFRepresentedCycles is the estimated cycle cost of the
	// fast-forwarded instructions, each leg priced at the mean
	// cycles-per-instruction of the two windows that bracket it (see
	// stitcher).
	FFRepresentedCycles uint64
	// WarmupRepresentedCycles is the estimated cycle cost of the
	// instructions that committed during warmup prefixes, priced like the
	// fast-forwarded ones. Warmup is state-priming only: it restarts from
	// an empty pipeline, so its raw cycle count overstates the real cost
	// of its commits by roughly a pipeline-fill per window — charging the
	// representative price instead keeps the estimate unbiased.
	WarmupRepresentedCycles uint64
	// EstimatedCycles is the stitched full-run estimate: MeasuredCycles +
	// FFRepresentedCycles + WarmupRepresentedCycles; Result.Stats.Cycles
	// reports the same number.
	EstimatedCycles uint64

	// WindowWorkers is the number of worker cores that ran the detailed
	// legs (at least 1).
	WindowWorkers int
	// SweepSeconds is the functional sweep's wall-clock (0 when the run
	// ended inside window 0, leaving nothing to sweep). Wall-clock fields
	// are the only non-deterministic members of this struct; identity
	// tests zero them before comparing.
	SweepSeconds float64
	// MeasureSeconds sums the detailed warmup+window simulation time
	// across window 0 and every worker leg (exceeds the run's wall-clock
	// when legs run concurrently).
	MeasureSeconds float64
}

// DetailedFraction returns the fraction of the estimated run that was
// simulated cycle-by-cycle (1 when no fast-forward happened).
func (s *SampledRunStats) DetailedFraction() float64 {
	if s.EstimatedCycles == 0 {
		return 1
	}
	return float64(s.DetailedCycles) / float64(s.EstimatedCycles)
}

// Default sampled-schedule geometry: 8K-cycle measurement windows, one per
// 128K cycles (a 1/16 measured fraction), each preceded by an 8K-cycle
// detailed warmup absorbing post-fast-forward transients. Chosen
// empirically on the suite: windows shorter than 8K cycles get noisy on
// stall-dominated workloads (one DRAM burst dominates the window CPI),
// warmups shorter than the window leave warm-state transients in the
// measurement, and the 1/16 fraction is the widest that still leaves the
// trapezoidal stitching enough windows to track phase ramps at benchmark
// scales, landing under 2% cycle error at 4x+ effective speed.
const (
	DefaultSampledWindow   = 8 << 10
	DefaultSampledInterval = 128 << 10
	DefaultSampledWarmup   = 8 << 10
)

// ResolveSampled turns a sampled-run request into rc's window geometry,
// sets rc.Sampled, and validates the result. It is the one place sampled
// defaults are applied: tipsim, tipbench, tipd and the experiment harness
// all resolve through it, so a request validated on any surface runs
// exactly the geometry it was validated as. Zero window or interval select
// DefaultSampledWindow and DefaultSampledInterval. warmup is "" for
// DefaultSampledWarmup (none at full fraction, where nothing is
// fast-forwarded), "auto" for AutoWarmupCycles, or a literal cycle count,
// "0" included.
func (rc *RunConfig) ResolveSampled(window, interval uint64, warmup string) error {
	if window == 0 {
		window = DefaultSampledWindow
	}
	if interval == 0 {
		interval = DefaultSampledInterval
	}
	var warm uint64
	switch warmup {
	case "":
		if window != interval {
			warm = DefaultSampledWarmup
		}
	case "auto":
		warm = AutoWarmupCycles(window, interval)
	default:
		n, err := strconv.ParseUint(warmup, 10, 64)
		if err != nil {
			return fmt.Errorf("sampled: warmup must be a cycle count or \"auto\": %q", warmup)
		}
		warm = n
	}
	rc.Sampled = true
	rc.WindowCycles, rc.WindowInterval, rc.WarmupCycles = window, interval, warm
	return ValidateSampled(*rc)
}

// ValidateSampled checks rc's sampled-simulation window geometry. RunSampled
// applies it to every run, and ResolveSampled to every request before any
// simulation time is spent.
func ValidateSampled(rc RunConfig) error {
	switch {
	case rc.WindowCycles == 0:
		return fmt.Errorf("sampled: WindowCycles must be positive")
	case rc.WindowInterval == 0:
		return fmt.Errorf("sampled: WindowInterval must be positive")
	case rc.WindowCycles > rc.WindowInterval:
		return fmt.Errorf("sampled: WindowCycles %d exceeds WindowInterval %d",
			rc.WindowCycles, rc.WindowInterval)
	case rc.WarmupCycles > rc.WindowInterval-rc.WindowCycles && rc.WindowCycles != rc.WindowInterval:
		return fmt.Errorf("sampled: WindowCycles %d + WarmupCycles %d exceed WindowInterval %d",
			rc.WindowCycles, rc.WarmupCycles, rc.WindowInterval)
	}
	return nil
}

// mulDiv returns a*b/d with a 128-bit intermediate, saturating at MaxUint64
// instead of overflowing; d must be non-zero.
func mulDiv(a, b, d uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi >= d {
		return math.MaxUint64
	}
	q, _ := bits.Div64(hi, lo, d)
	return q
}

// sampledCancelMask mirrors the core's RunContext poll granularity: the
// detailed loops check their context every sampledCancelMask+1 core cycles.
const sampledCancelMask = 8191

// AutoWarmupCycles is the `-warmup auto` heuristic (RunConfig.WarmupAuto):
// pick a warmup prefix proportional to the gap the fast-forward legs span, so
// long skips — which leave more stale μarch state per unit of warming — get
// proportionally more detailed state-priming, while short gaps are not eaten
// whole by warmup. The rule: 1/16 of the gap, at least 8192 cycles (the
// BENCH_6 floor below which L2-resident workloads under-warm), capped at half
// the gap so at least as much of each gap is skipped as is warmed. The
// default geometry (8K windows every 128K) resolves to 8192, the long-time
// fixed default.
func AutoWarmupCycles(windowCycles, windowInterval uint64) uint64 {
	if windowInterval <= windowCycles {
		return 0
	}
	gap := windowInterval - windowCycles
	warm := gap / 16
	if warm < 8192 {
		warm = 8192
	}
	if warm > gap/2 {
		warm = gap / 2
	}
	return warm
}

// stitcher prices unmeasured instruction spans — a fast-forward leg plus the
// warmup commits after it — by the windows that bracket them, not the
// preceding window alone: real programs trend (imagick triples its IPC as its
// compulsory-miss ramp drains), and one-sided pricing turns any trend into a
// systematic cycle over- or under-estimate. Each pending span is settled
// trapezoidally once the next window's CPI is known — the mean of the two
// bracketing windows' prices — and warmup commits are priced at the window
// they run contiguously into. A span the program ends inside is settled
// one-sidedly at termination; a window that committed nothing cedes its side
// of the bracket (falling back to CPI 1 only when neither side committed).
type stitcher struct {
	sr          *SampledRunStats
	pendingExec uint64
	pendingWarm uint64
	havePending bool
	prevCycles  uint64
	prevCommits uint64
}

func stitchPrice(x, cyc, com uint64) (uint64, bool) {
	if com == 0 {
		return x, false
	}
	return mulDiv(x, cyc, com), true
}

// pend records an unmeasured span (exec fast-forwarded instructions, warm
// warmup commits) bracketed on the left by a window of prevCycles/prevCommits.
func (st *stitcher) pend(exec, warm, prevCycles, prevCommits uint64) {
	st.pendingExec, st.pendingWarm = exec, warm
	st.prevCycles, st.prevCommits = prevCycles, prevCommits
	st.havePending = true
}

// settle prices the pending span against the right-bracket window (haveCur
// false at end of program, when no right bracket exists).
func (st *stitcher) settle(curCycles, curCommitted uint64, haveCur bool) {
	if !st.havePending {
		return
	}
	st.havePending = false
	prev, prevOK := stitchPrice(st.pendingExec, st.prevCycles, st.prevCommits)
	cur, curOK := stitchPrice(st.pendingExec, curCycles, curCommitted)
	curOK = curOK && haveCur
	switch {
	case prevOK && curOK:
		st.sr.FFRepresentedCycles += prev/2 + cur/2 + (prev%2+cur%2)/2
	case curOK:
		st.sr.FFRepresentedCycles += cur
	default:
		st.sr.FFRepresentedCycles += prev // prev falls back to CPI 1 itself
	}
	if w, ok := stitchPrice(st.pendingWarm, curCycles, curCommitted); ok && haveCur {
		st.sr.WarmupRepresentedCycles += w
	} else if w, ok := stitchPrice(st.pendingWarm, st.prevCycles, st.prevCommits); ok {
		st.sr.WarmupRepresentedCycles += w
	} else {
		st.sr.WarmupRepresentedCycles += st.pendingWarm
	}
	st.pendingExec, st.pendingWarm = 0, 0
}

// RunSampled evaluates rc's profiler matrix under sampled simulation (see
// RunConfig.Sampled): a functional sweep fast-forwards through the program
// and snapshots warmed state at each window's warmup start, a pool of
// WindowWorkers cores runs the detailed warmup+window legs, and a sequencer
// streams the measured windows in schedule order through the same bounded
// ring and replay shards as RunStreaming (see runSampledWindows).
// Profilers therefore observe a contiguous, renumbered trace covering
// roughly WindowCycles/WindowInterval of the execution; Result.Stats
// reports the stitched full-run estimate and Result.Sampling the schedule.
// The output is byte-identical for every WindowWorkers value. With
// WindowCycles == WindowInterval window 0 runs to program end and the run
// is bit-identical to RunStreaming (and to the two-pass captured path) at
// every layer. A nil ctx means context.Background().
func RunSampled(ctx context.Context, w *Workload, rc RunConfig) (*Result, error) {
	if err := ValidateSampled(rc); err != nil {
		return nil, fmt.Errorf("tip: %s: %w", w.Name, err)
	}
	var sampling *SampledRunStats
	res, err := runFused(ctx, w, rc, rc.WindowCycles, rc.WindowInterval, func(ctx context.Context, s *trace.Stream) (CoreStats, error) {
		st, sr, err := runSampledWindows(ctx, w, rc, s)
		if err != nil {
			return CoreStats{}, err
		}
		sampling = sr
		s.Finish(sr.MeasuredCycles)
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	res.Sampling = sampling
	return res, nil
}
