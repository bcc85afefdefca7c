package tip

import (
	"context"
	"errors"
	"fmt"

	"github.com/tipprof/tip/internal/multicore"
	"github.com/tipprof/tip/internal/trace"
)

// MulticoreResult is the outcome of one multi-programmed profiled run: one
// Result per core, each validated against that core's own Oracle (§3.2 —
// every physical core has its own TIP unit; a co-runner changes a
// benchmark's timing but not its profile's accuracy).
type MulticoreResult struct {
	// Cores holds one Result per core, in spec order.
	Cores []*Result
	// TotalCycles is the interleaved run's length: the last committing
	// cycle across all cores, plus one.
	TotalCycles uint64
}

// CaptureMulticore runs ws lockstep on one shared-LLC system — workload i
// on core i — streaming the interleaved commit-stage records into one
// core-tagged TIPTRC3 capture. It returns the capture (caller must Close
// it) and each core's run statistics. Cancelling ctx aborts the simulation;
// a nil ctx disables cancellation.
func CaptureMulticore(ctx context.Context, ws []*Workload, cfg CoreConfig) (*TraceCapture, []CoreStats, error) {
	if len(ws) == 0 {
		return nil, nil, errors.New("tip: multicore capture needs at least one workload")
	}
	specs := make([]multicore.CoreSpec, len(ws))
	for i, w := range ws {
		specs[i] = multicore.CoreSpec{Workload: w}
	}
	sys := multicore.New(multicore.Config{Core: cfg}, specs)
	capt := trace.NewCaptureV3(0)
	results, err := sys.CaptureRun(ctx, capt)
	if err == nil {
		if cerr := capt.Err(); cerr != nil {
			err = fmt.Errorf("tip: multicore capture: %w", cerr)
		}
	}
	if err != nil {
		if cerr := capt.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("tip: close multicore capture: %w", cerr))
		}
		return nil, nil, err
	}
	stats := make([]CoreStats, len(results))
	for i := range results {
		stats[i] = results[i].Stats
	}
	return capt, stats, nil
}

// RunMulticoreCaptured evaluates rc's profiler matrix per core by replaying
// a core-tagged multicore capture — one decode pass feeds every core's
// matrix through trace.CoreFilter demultiplexers. stats must be the capture
// run's per-core statistics (from CaptureMulticore). With rc.SampleInterval
// zero each core's interval is calibrated from that core's own cycle count,
// exactly as a single-core run of the same length would be. With rc.Check a
// separate invariant checker rides each core's filtered stream, so cycle
// contiguity and the Oracle/Sampled conservation laws are audited per core.
//
// rc.ReplayWorkers spreads the per-core matrices over replay shards: each
// core gets max(1, ReplayWorkers/len(ws)) shards and every shard is wrapped
// in that core's filter, so worker count never changes profile output.
// rc.ExtraConsumers / rc.ExtraConsumersAt are not applied on this path —
// they would observe one core's filtered stream per matrix they were added
// to, which is never what a caller wiring a single-stream consumer expects.
func RunMulticoreCaptured(ctx context.Context, ws []*Workload, capt *TraceCapture, stats []CoreStats, rc RunConfig) (*MulticoreResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(ws) == 0 || len(ws) != len(stats) {
		return nil, fmt.Errorf("tip: multicore replay: %d workloads, %d stats", len(ws), len(stats))
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("tip: multicore replay: %w", err)
	}
	rc.ExtraConsumers = nil
	rc.ExtraConsumersAt = nil

	perCore := rc.ReplayWorkers / len(ws)
	if perCore < 1 {
		perCore = 1
	}
	matrices := make([]consumerMatrix, len(ws))
	var shards []trace.Consumer
	for i, w := range ws {
		matrices[i] = calibratedMatrix(w, rc, stats[i].Cycles)
		for _, shard := range matrices[i].shards(perCore) {
			shards = append(shards, &trace.CoreFilter{Core: uint32(i), Inner: shard})
		}
	}

	var totalCycles uint64
	var err error
	if rc.ReplayWorkers > 1 {
		totalCycles, _, err = capt.ReplayShards(ctx, 0, shards...)
	} else {
		totalCycles, _, err = capt.Replay(shards...)
	}
	if err != nil {
		return nil, fmt.Errorf("tip: multicore replay: %w", err)
	}
	res := &MulticoreResult{TotalCycles: totalCycles}
	for i, w := range ws {
		cr, err := matrices[i].result(w, stats[i])
		if err != nil {
			return nil, fmt.Errorf("tip: core %d (%s): %w", i, w.Name, err)
		}
		res.Cores = append(res.Cores, cr)
	}
	return res, nil
}

// RunMulticore captures a lockstep multi-programmed run of ws and evaluates
// the per-core profiler matrices from the capture — the whole-pipeline
// multicore entry point behind tipsim -cores, tipbench -figures multicore,
// and tipd "cores" jobs.
func RunMulticore(ctx context.Context, ws []*Workload, rc RunConfig) (*MulticoreResult, error) {
	capt, stats, err := CaptureMulticore(ctx, ws, rc.Core)
	if err != nil {
		return nil, err
	}
	defer capt.Close()
	return RunMulticoreCaptured(ctx, ws, capt, stats, rc)
}
