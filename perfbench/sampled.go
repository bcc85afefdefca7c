package main

import (
	"context"
	"fmt"
	"math"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/program"
	"github.com/tipprof/tip/internal/workload"
)

// The ROADMAP's 116M-cycle sampled demo:
//
//	tipsim -bench mcf -scale 24000000 -samples 2048 -sampled -warmup 16384
//
// run with one window worker, the estimator that is byte-identical for every
// worker count of at least one.
const (
	sampledBench    = "mcf"
	sampledScale    = 24_000_000
	sampledSamples  = 2048
	sampledWindow   = 8192
	sampledInterval = 131_072
	sampledWarmup   = 16_384
	// sampledFullCycles is the full-detail cycle count of the demo input
	// (BENCH_6.json, EXPERIMENTS.md): the reference for cpi_err_pct.
	sampledFullCycles = 114_183_115
	// sampledEstimate is the stitched estimate the one-worker estimator
	// gives for the demo input; any other value is a wrong output.
	sampledEstimate = 116_309_619
)

// runSampled runs the demo through tip.RunSampled until the time is up. The
// input is fixed — the CPI reference exists for this input only — so the
// seed changes nothing the program sees.
func runSampled(b *bench) {
	scale := uint64(sampledScale)
	if b.tiny {
		scale = 400_000
	}
	rc := tip.DefaultRunConfig()
	rc.TargetSamples = sampledSamples
	rc.Sampled = true
	rc.WindowCycles = sampledWindow
	rc.WindowInterval = sampledInterval
	rc.WarmupCycles = sampledWarmup
	rc.WindowWorkers = 1

	var w *tip.Workload
	b.setup(func() {
		var err error
		if w, err = workload.LoadScaled(sampledBench, 1, scale); err != nil {
			panic(err)
		}
		// The demo's geometry once on a short prefix of the same program,
		// so the first measured run does not pay for lazy start-up.
		small, err := workload.LoadScaled(sampledBench, 1, 400_000)
		if err != nil {
			panic(err)
		}
		if _, err := tip.RunSampled(context.Background(), small, rc); err != nil {
			panic(err)
		}
	}, nil)

	type rep struct {
		c   cost
		res *tip.Result
	}
	var reps []rep
	var first *tip.Result
	// The sweep and the window worker run on goroutines of their own, where
	// no span reaches: the traced run folds a CPU profile of the runs.
	prof := startProfile(b)
	b.timed(func(deadline func() bool) {
		for len(reps) == 0 || !deadline() {
			b.attempted++
			b.settle(b.root)
			b.heap.enter("sampled")
			s := now()
			sp := b.tr.begin("tip.RunSampled", b.root)
			res, err := tip.RunSampled(context.Background(), w, rc)
			b.tr.end(sp)
			c := since(s)
			b.heap.enter("")
			if err != nil {
				b.fail("RunSampled: %v", err)
				if len(reps) == 0 && first == nil {
					return
				}
				continue
			}
			if first == nil {
				first = res
			}
			if err := checkSampled(res, first, scale == sampledScale); err != nil {
				b.fail("%v", err)
				continue
			}
			reps = append(reps, rep{c, res})
		}
	})
	rows := prof.stop()
	if first == nil {
		return
	}

	var perCPU, perWall, lat []float64
	for _, r := range reps {
		insts := float64(r.res.Stats.Committed) / 1e6
		perCPU = append(perCPU, insts/r.c.cpu)
		perWall = append(perWall, insts/r.c.wall)
		lat = append(lat, r.c.wall*1e3)
	}
	sr := first.Sampling
	b.set("minst_per_cpu_s", median(perCPU))
	b.set("minst_per_s", median(perWall))
	b.set("jobs_per_s", 1/median(lat)*1e3)
	b.set("peak_heap_mb", b.heap.mib("sampled"))
	b.set("tip_err_pct", 100*first.Err(tip.KindTIP, tip.GranInstruction))
	b.set("cpi_err_pct", 100*math.Abs(float64(sr.EstimatedCycles)-sampledFullCycles)/sampledFullCycles)
	b.setLatency("cold", lat)
	b.diag["sampled_estimated_cycles"] = sr.EstimatedCycles

	if b.tr != nil {
		var sweep, measure []float64
		for _, r := range reps {
			sweep = append(sweep, r.res.Sampling.SweepSeconds)
			measure = append(measure, r.res.Sampling.MeasureSeconds)
		}
		b.set("sampled.sweep_s", median(sweep))
		b.set("sampled.measure_s", median(measure))
		b.set("sampled.windows", float64(sr.Windows))
		b.set("sampled.detailed_fraction", sr.DetailedFraction())
		if rows != nil {
			b.profileRows(rows, len(reps))
		}
		probeFastForward(b, w, rc.Core, first.Stats.Committed)
	}
}

// checkSampled compares a run with the first one and with the references:
// the estimator is deterministic, so its estimate, profile error and
// instruction count never change.
func checkSampled(res, first *tip.Result, checkRef bool) error {
	sr, fr := res.Sampling, first.Sampling
	switch {
	case sr == nil:
		return fmt.Errorf("RunSampled returned no sampling statistics")
	case sr.EstimatedCycles != fr.EstimatedCycles || res.Stats.Committed != first.Stats.Committed:
		return fmt.Errorf("estimate %d cycles / %d instructions, first run %d / %d",
			sr.EstimatedCycles, res.Stats.Committed, fr.EstimatedCycles, first.Stats.Committed)
	case res.Err(tip.KindTIP, tip.GranInstruction) != first.Err(tip.KindTIP, tip.GranInstruction):
		return fmt.Errorf("TIP error differs from the first run")
	case !equalFloats(res.Oracle.Profile.InstCycles, first.Oracle.Profile.InstCycles):
		return fmt.Errorf("window Oracle profile differs from the first run")
	case checkRef && sampledEstimate != 0 && sr.EstimatedCycles != sampledEstimate:
		return fmt.Errorf("estimate %d cycles, reference %d", sr.EstimatedCycles, uint64(sampledEstimate))
	}
	return nil
}

// probeFastForward times the sampled route's own layers from outside: the
// functional fast-forward over the whole program, and checkpoint/restore of
// the warmed core it leaves behind.
func probeFastForward(b *bench, w *tip.Workload, cfg tip.CoreConfig, insts uint64) {
	b.settle(b.root)
	interp := program.NewInterp(w.Prog, w.Seed)
	core := cpu.New(cfg, w.Prog, interp)
	for _, reg := range w.Prefault {
		core.MMU().PrefaultRange(reg.Base, reg.Size)
	}
	ff := program.NewFastForward(w.Prog)
	core.ArchCheckpoint(0)

	// Fast-forward to the middle of the program, checkpoint and restore the
	// warmed core there, then fast-forward the rest.
	s := now()
	sp := b.tr.begin("cpu.Core.FastForward", b.root)
	executed, _ := core.FastForward(ff, insts/2)
	b.tr.end(sp)
	first := since(s)

	const n = 64
	var cp cpu.Checkpoint
	core.CheckpointInto(&cp) // first use allocates; time the steady state
	s = now()
	sp = b.tr.begin("cpu.Core.CheckpointInto", b.root)
	for i := 0; i < n; i++ {
		core.CheckpointInto(&cp)
	}
	b.tr.end(sp)
	b.set("cpu.checkpoint_us", since(s).cpu/n*1e6)

	worker := cpu.New(cfg, w.Prog, program.NewInterp(w.Prog, w.Seed))
	for _, reg := range w.Prefault {
		worker.MMU().PrefaultRange(reg.Base, reg.Size)
	}
	s = now()
	sp = b.tr.begin("cpu.Core.Restore", b.root)
	for i := 0; i < n; i++ {
		worker.Restore(&cp, interp.Clone(), uint64(i))
	}
	b.tr.end(sp)
	b.set("cpu.restore_us", since(s).cpu/n*1e6)

	s = now()
	sp = b.tr.begin("cpu.Core.FastForward", b.root)
	rest, _ := core.FastForward(ff, math.MaxUint64)
	b.tr.end(sp)
	total := first.add(since(s))
	b.set("cpu.fastforward_minst_per_cpu_s", float64(executed+rest)/1e6/total.cpu)
}
