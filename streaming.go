package tip

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"github.com/tipprof/tip/internal/trace"
)

// DefaultPilotCycles is the default streaming calibration window. At the
// suite's simulated IPC it covers a few hundred thousand instructions —
// enough pilot signal that the cycles-per-instruction extrapolation lands
// the sampling interval within a few percent of the two-pass calibration,
// while bounding the buffered prefix to a few megabytes of encoded trace.
const DefaultPilotCycles = 1 << 17

// PilotEstimateCycles extrapolates a run's total cycle count from its pilot
// window: the pilot's cycles-per-instruction scaled to the workload's
// dynamic-instruction budget (Workload.TargetDynInsts). Exact pilot stats —
// the run ended inside the window — are returned as-is, making the estimate
// (and therefore the calibrated interval) identical to the two-pass path.
// The estimate saturates instead of overflowing and is never smaller than
// the pilot itself.
func PilotEstimateCycles(ps trace.PilotStats, targetDynInsts uint64) uint64 {
	if ps.Exact || ps.Committed == 0 || targetDynInsts == 0 {
		return ps.Cycles
	}
	hi, lo := bits.Mul64(ps.Cycles, targetDynInsts)
	if hi >= ps.Committed {
		return math.MaxUint64
	}
	est, _ := bits.Div64(hi, lo, ps.Committed)
	if est < ps.Cycles {
		est = ps.Cycles
	}
	return est
}

// appendConsumers appends extra to base without aliasing the caller's slice.
func appendConsumers(base, extra []trace.Consumer) []trace.Consumer {
	if len(extra) == 0 {
		return base
	}
	out := make([]trace.Consumer, 0, len(base)+len(extra))
	out = append(out, base...)
	return append(out, extra...)
}

// RunStreaming evaluates rc's profiler matrix in a single fused pass: the
// cycle-level simulation streams trace chunks through a bounded ring
// into the replay shards while it is still running, so peak memory is
// independent of run length and wall-clock approaches max(simulate, replay).
// With rc.SampleInterval zero the interval is calibrated from a pilot window
// (rc.PilotCycles); see RunConfig.Streaming for the parity contract with the
// captured path. A nil ctx means context.Background().
func RunStreaming(ctx context.Context, w *Workload, rc RunConfig) (*Result, error) {
	return runFused(ctx, w, rc, 1, 1, func(ctx context.Context, s *trace.Stream) (CoreStats, error) {
		return newCore(rc.Core, w).RunContext(ctx, s)
	})
}

// runFused is the one orchestrator behind RunStreaming and RunSampled.
// produce runs on its own goroutine, feeds the stream and returns the run's
// statistics, having Finished the stream on success (the core's RunContext
// does so itself); on error runFused fails the stream. The calling
// goroutine calibrates from the pilot window, builds the profiler matrix,
// and replays the stream through it. The profilers observe measuredNum/measuredDen of the run, so
// an extrapolated (inexact) pilot estimate is scaled by that fraction before
// calibration; exact pilot stats already are the observed total. Error
// precedence follows the captured path: a producer failure surfaces as the
// run error, a shard consumer failure as the replay error, and any failure
// cancels the other side before returning.
func runFused(ctx context.Context, w *Workload, rc RunConfig, measuredNum, measuredDen uint64, produce func(context.Context, *trace.Stream) (CoreStats, error)) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fail := func(err error) (*Result, error) {
		return nil, fmt.Errorf("tip: %s: %w", w.Name, err)
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}

	var pilotCycles uint64
	if rc.SampleInterval == 0 {
		pilotCycles = rc.PilotCycles
		if pilotCycles == 0 {
			pilotCycles = DefaultPilotCycles
		}
	}
	s := trace.NewStream(trace.StreamConfig{PilotCycles: pilotCycles})

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	var stats CoreStats
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		st, err := produce(runCtx, s)
		if err != nil {
			// Fail closes the producer side so the replay drains and then
			// observes this error.
			s.Fail(err)
			return
		}
		stats = st
	}()
	// stop tears down both sides on a consumer-side failure: the stream stops
	// accepting records, the producer's context is cancelled, and the
	// producer goroutine is awaited so nothing races the return.
	stop := func() {
		s.Abort()
		cancelRun()
		<-prodDone
	}

	var estCycles uint64
	if rc.SampleInterval == 0 {
		ps, err := s.Pilot(ctx)
		if err != nil {
			stop()
			return fail(err)
		}
		estCycles = PilotEstimateCycles(ps, w.TargetDynInsts)
		if !ps.Exact {
			estCycles = mulDiv(estCycles, measuredNum, measuredDen)
		}
	}
	m := calibratedMatrix(w, rc, estCycles)

	workers := rc.ReplayWorkers
	if workers < 1 {
		workers = 1
	}
	if _, _, err := s.ReplayShards(ctx, m.shards(workers)...); err != nil {
		stop()
		return fail(err)
	}
	// A clean replay means the producer already Finished; the wait is only
	// for the stats publication.
	<-prodDone
	res, err := m.result(w, stats)
	if err != nil {
		return fail(err)
	}
	return res, nil
}
