// Command tipsim runs one benchmark on the simulated BOOM-style core with
// any set of profilers and prints the resulting profiles, cycle stack, and
// profile errors against the Oracle reference.
//
// Examples:
//
//	tipsim -bench imagick -top 8
//	tipsim -bench imagick -fn ceil
//	tipsim -bench gcc -profilers NCI,TIP -samples 8192
//	tipsim -cores mcf,x264
//	tipsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/perfdata"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

func main() {
	var (
		bench     = flag.String("bench", "imagick", "benchmark name (see -list)")
		cores     = flag.String("cores", "", "comma-separated benchmarks run lockstep on one shared-LLC system, workload i on core i, profiled per core through the core-tagged capture (incompatible with -record/-streaming/-sampled)")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		profilers = flag.String("profilers", "", "comma-separated profiler subset (default: all)")
		samples   = flag.Uint64("samples", 4096, "calibrated sample count (4 kHz-equivalent)")
		random    = flag.Bool("random", false, "random sampling within each interval")
		seed      = flag.Uint64("seed", 1, "workload seed")
		scale     = flag.Uint64("scale", 0, "approximate dynamic instruction budget (0 = default)")
		top       = flag.Int("top", 10, "functions to print")
		fn        = flag.String("fn", "", "print the instruction-level profile of this function")
		record    = flag.String("record", "", "record raw TIP samples (88 B/sample) to this file; post-process with tipreport")
		streaming = flag.Bool("streaming", false, "stream the simulation straight into the replay shards (fused capture+replay; interval calibrated from a pilot window)")
		pilot     = flag.Uint64("pilot", 0, "streaming pilot-window length in cycles (0 = default 131072)")
		sampled   = flag.Bool("sampled", false, "sampled simulation: detailed measurement windows alternating with functional fast-forward (see -window/-interval/-warmup)")
		window    = flag.Uint64("window", 0, "sampled measurement-window length in cycles (0 = default 8192; requires -sampled)")
		interval  = flag.Uint64("interval", 0, "sampled window period in cycles (0 = default 131072; requires -sampled)")
		warmup    = flag.String("warmup", "", "detailed warmup cycles before each sampled window, or \"auto\" to size from the fast-forward leg length (empty = default 8192; requires -sampled)")
		windowW   = flag.Int("windowworkers", 0, "sampled simulation: worker cores running detailed windows concurrently over the functional sweep (0 means 1; output is byte-identical at any count; requires -sampled)")
		checkInv  = flag.Bool("check", false, "verify cycle-level trace invariants and profiler conservation; fail on any violation")
		replayW   = flag.Int("replayworkers", 1, "worker goroutines the captured-trace replay fans the profilers out over (decode-once broadcast; results are byte-identical at any count)")
		cpuprof   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprof   = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		exectrace = flag.String("exectrace", "", "write a runtime execution trace (go tool trace) to this file")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer writeHeapProfile(*memprof)
	}
	if *exectrace != "" {
		f, err := os.Create(*exectrace)
		if err != nil {
			fatal(err)
		}
		if err := rtrace.Start(f); err != nil {
			fatal(err)
		}
		defer rtrace.Stop()
	}

	if *list {
		for _, name := range tip.Benchmarks() {
			class, _ := tip.BenchmarkClass(name)
			fmt.Printf("%-16s %s\n", name, class)
		}
		fmt.Printf("%-16s %s\n", "imagick-opt", "Flush (optimized §6 variant)")
		return
	}

	var kinds []tip.Kind
	if *profilers != "" {
		var err error
		if kinds, err = profiler.ParseKinds(strings.Split(*profilers, ",")...); err != nil {
			fatal(err)
		}
	}

	rc := tip.DefaultRunConfig()
	rc.TargetSamples = *samples
	rc.RandomSampling = *random
	rc.Profilers = kinds
	rc.WithBreakdown = true
	rc.Check = *checkInv
	rc.ReplayWorkers = *replayW
	rc.Streaming = *streaming
	rc.PilotCycles = *pilot
	if err := configureSampled(&rc, *sampled, *window, *interval, *warmup, *windowW, *record != ""); err != nil {
		fatal(err)
	}

	if *cores != "" {
		if err := runMulticore(*cores, *seed, *scale, rc, *top, *fn,
			*record != "", *streaming, *sampled); err != nil {
			fatal(err)
		}
		return
	}

	w, err := workload.LoadScaled(*bench, *seed, *scale)
	if err != nil {
		fatal(err)
	}

	var recFile *os.File
	var recWriter *perfdata.Writer
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fatal(err)
		}
		recFile = f
		recWriter = perfdata.NewWriter(f)
		// The collector samples at the run's calibrated interval, so it
		// joins the matrix once calibration has fixed it.
		rc.ExtraConsumersAt = func(interval, _ uint64) []trace.Consumer {
			return []trace.Consumer{perfdata.NewCollector(recWriter, sampling.NewPeriodic(interval), 0, 1, 1)}
		}
	}
	res, err := tip.Run(w, rc)
	if err != nil {
		fatal(err)
	}
	if recWriter != nil {
		if recWriter.Err() != nil {
			fatal(recWriter.Err())
		}
		if err := recFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d raw samples (%d bytes) to %s\n",
			recWriter.Count(), recWriter.Count()*perfdata.RecordBytes, *record)
	}

	printResult(w.Name, res, *top, *fn)
}

// printResult renders one run's summary, error table, and top functions.
func printResult(name string, res *tip.Result, top int, fn string) {
	fmt.Printf("benchmark %s: %d cycles, %d instructions, IPC %.2f, sample interval %d cycles\n",
		name, res.Stats.Cycles, res.Stats.Committed, res.Stats.IPC(), res.SampleInterval)
	if sr := res.Sampling; sr != nil {
		fmt.Printf("sampled: %d windows, %d measured cycles (%.1f%% detailed), %d instructions fast-forwarded; cycle total is the stitched estimate\n",
			sr.Windows, sr.MeasuredCycles, sr.DetailedFraction()*100, sr.FFInstructions)
		fmt.Printf("parallel: %d window workers; sweep %.2fs, detailed legs %.2fs aggregate\n",
			sr.WindowWorkers, sr.SweepSeconds, sr.MeasureSeconds)
	}
	fmt.Printf("mispredicts %d, CSR flushes %d, exceptions %d\n",
		res.Stats.Mispredicts, res.Stats.CSRFlushes, res.Stats.Exceptions)
	fmt.Printf("cycle stack: %s  (class %s)\n\n", res.Stack().String(), res.Stack().Class())

	fmt.Println("profile error vs Oracle (instruction / basic-block / function):")
	for _, k := range orderOf(res) {
		fmt.Printf("  %-9s %6.2f%%  %6.2f%%  %6.2f%%\n", k.String(),
			res.Err(k, tip.GranInstruction)*100,
			res.Err(k, tip.GranBlock)*100,
			res.Err(k, tip.GranFunction)*100)
	}

	fmt.Printf("\nhottest functions (Oracle):\n")
	for _, r := range res.Oracle.Profile.TopFunctions(top, true) {
		fmt.Printf("  %-24s %6.2f%%\n", r.Name, r.Share*100)
	}

	if fn != "" {
		fmt.Printf("\ninstruction profile of %s (Oracle / TIP / NCI):\n", fn)
		or := res.Oracle.Profile.FunctionInstProfile(fn)
		tp := res.Sampled[tip.KindTIP]
		np := res.Sampled[tip.KindNCI]
		for i, r := range or {
			tv, nv := "-", "-"
			if tp != nil {
				if rows := tp.Profile.FunctionInstProfile(fn); i < len(rows) {
					tv = fmt.Sprintf("%6.2f%%", rows[i].Share*100)
				}
			}
			if np != nil {
				if rows := np.Profile.FunctionInstProfile(fn); i < len(rows) {
					nv = fmt.Sprintf("%6.2f%%", rows[i].Share*100)
				}
			}
			fmt.Printf("  %-28s %6.2f%%  %7s  %7s\n", r.Name, r.Share*100, tv, nv)
		}
	}
}

// runMulticore runs the -cores benchmark set lockstep on one shared-LLC
// system and prints each core's profile evaluation against that core's own
// Oracle.
func runMulticore(spec string, seed, scale uint64, rc tip.RunConfig, top int, fn string, recording, streaming, sampled bool) error {
	switch {
	case recording:
		return fmt.Errorf("-record is incompatible with -cores (raw-sample recording is single-core)")
	case streaming:
		return fmt.Errorf("-streaming is incompatible with -cores (multicore profiling demultiplexes a finished capture)")
	case sampled:
		return fmt.Errorf("-sampled is incompatible with -cores (fast-forward legs emit no core-tagged records)")
	}
	names := strings.Split(spec, ",")
	ws := make([]*tip.Workload, 0, len(names))
	for _, name := range names {
		w, err := workload.LoadScaled(strings.TrimSpace(name), seed, scale)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	res, err := tip.RunMulticore(context.Background(), ws, rc)
	if err != nil {
		return err
	}
	fmt.Printf("%d cores, %d interleaved cycles\n", len(res.Cores), res.TotalCycles)
	for i, cr := range res.Cores {
		fmt.Printf("\n--- core %d ---\n", i)
		printResult(ws[i].Name, cr, top, fn)
	}
	return nil
}

// configureSampled applies the sampled-simulation flags to rc. The geometry
// flags are meaningless without -sampled, and -record needs the concrete
// sample interval before the run starts while sampled mode calibrates from
// a pilot window — both are rejected rather than silently ignored. The
// geometry itself is resolved and validated by tip.RunConfig.ResolveSampled.
func configureSampled(rc *tip.RunConfig, sampled bool, window, interval uint64, warmup string, workers int, recording bool) error {
	if !sampled {
		switch {
		case window != 0:
			return fmt.Errorf("-window requires -sampled")
		case interval != 0:
			return fmt.Errorf("-interval requires -sampled")
		case warmup != "":
			return fmt.Errorf("-warmup requires -sampled")
		case workers != 0:
			return fmt.Errorf("-windowworkers requires -sampled")
		}
		return nil
	}
	if recording {
		return fmt.Errorf("-record is incompatible with -sampled (raw-sample recording needs the full trace)")
	}
	if workers < 0 {
		return fmt.Errorf("-windowworkers must be >= 0, got %d", workers)
	}
	rc.WindowWorkers = workers
	return rc.ResolveSampled(window, interval, warmup)
}

func orderOf(res *tip.Result) []tip.Kind {
	var out []tip.Kind
	for _, k := range tip.AllKinds() {
		if _, ok := res.Sampled[k]; ok {
			out = append(out, k)
		}
	}
	return out
}

func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tipsim:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "tipsim:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tipsim:", err)
	os.Exit(1)
}
