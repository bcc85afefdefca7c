package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/sampling"
	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// suiteScale is the ROADMAP's headline suite scale (tipbench -scale 300000
// -samples 4096): about 300K dynamic instructions per benchmark.
const suiteScale = 300_000

// suiteInputSeed is the workload seed every suite benchmark is generated
// with. The run seed only orders the benchmarks, so simulated cycles and
// profile errors are the same on every run and can be checked against
// suiteCycles.
const suiteInputSeed = 1

// suiteWarmup is the benchmark the set-up runs once at a small scale.
const suiteWarmup = "nab"

// suiteCycles is each benchmark's simulated cycle count at suiteScale and
// suiteInputSeed on the default core. The simulator is deterministic, so any
// other count on either route is a wrong output.
var suiteCycles = map[string]uint64{
	"blackscholes":  235112,
	"bodytrack":     227832,
	"bwaves":        357736,
	"cactuBSSN":     159024,
	"cam4":          366082,
	"canneal":       1079791,
	"deepsjeng":     197000,
	"exchange2":     126932,
	"fluidanimate":  232205,
	"fotonik3d":     294755,
	"gcc":           574379,
	"imagick":       381770,
	"lbm":           239227,
	"leela":         229860,
	"mcf":           1252400,
	"nab":           233248,
	"namd":          164626,
	"omnetpp":       1543827,
	"parest":        1448759,
	"perlbench":     765255,
	"povray":        414900,
	"roms":          347132,
	"streamcluster": 224087,
	"swaptions":     153309,
	"wrf":           381127,
	"x264":          305680,
	"xalancbmk":     1442827,
}

// benchStat is what one benchmark's evaluations measured across passes.
type benchStat struct {
	name, class   string
	insts, cycles uint64
	twoPass       []cost // CaptureWorkload + RunCaptured + Close
	replay        []cost // RunCaptured alone: profiling from an existing capture
	stream        []cost // RunStreaming
	tipErr        float64
	oracle        []float64
	// Traced-run probes, one entry per pass.
	capture, run, decode, oracle1, sampled1, errCalc []float64
	bytes, records, repeats                          uint64
}

func medianCPU(cs []cost) float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = c.cpu
	}
	return median(xs)
}

func medianWall(cs []cost) float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = c.wall
	}
	return median(xs)
}

// runSuite evaluates all 27 benchmarks one at a time, each through the
// two-pass route (CaptureWorkload → RunCaptured, one replay worker) and then
// through RunStreaming, in an order drawn from the seed. It repeats passes
// until the time is up, always finishing the first, and reports each
// benchmark's median so a pass cut short by the deadline does not change the
// class mix.
func runSuite(b *bench) {
	scale := uint64(suiteScale)
	if b.tiny {
		scale = 20_000
	}
	names := tip.Benchmarks()

	rc := tip.DefaultRunConfig()
	rc.ReplayWorkers = 1
	var ws []*tip.Workload
	b.setup(func() {
		ws = ws[:0]
		for _, n := range names {
			w, err := workload.LoadScaled(n, suiteInputSeed, scale)
			if err != nil {
				panic(err)
			}
			ws = append(ws, w)
		}
		// Both routes once on a small input outside the measured set, so
		// the first measured benchmark does not pay for lazy start-up.
		w, err := workload.LoadScaled(suiteWarmup, suiteInputSeed, 20_000)
		if err != nil {
			panic(err)
		}
		if _, err := tip.Run(w, rc); err != nil {
			panic(err)
		}
		rc := rc
		rc.Streaming = true
		if _, err := tip.Run(w, rc); err != nil {
			panic(err)
		}
	}, nil)

	order := rand.New(rand.NewPCG(b.seed, 0x5417e)).Perm(len(ws))
	stats := make([]*benchStat, len(ws))
	for i, w := range ws {
		class, _ := tip.BenchmarkClass(w.Name)
		stats[i] = &benchStat{name: w.Name, class: class}
	}

	b.timed(func(deadline func() bool) {
		for pass := 0; pass == 0 || !deadline(); pass++ {
			for _, i := range order {
				if pass > 0 && deadline() {
					return
				}
				b.attempted++
				if err := evalBenchmark(b, ws[i], stats[i], rc, scale == suiteScale); err != nil {
					b.fail("%s: %v", ws[i].Name, err)
				}
			}
		}
	})

	var all, stall, compute, stm classSum
	var tipErr float64
	var cold, warm []float64
	measured := 0
	for _, st := range stats {
		if len(st.twoPass) == 0 {
			continue
		}
		measured++
		all.add(st.insts, st.twoPass)
		stm.add(st.insts, st.stream)
		switch st.class {
		case "Stall":
			stall.add(st.insts, st.twoPass)
		case "Compute":
			compute.add(st.insts, st.twoPass)
		}
		tipErr += st.tipErr
		for _, c := range st.stream {
			cold = append(cold, c.wall*1e3)
		}
		for _, c := range st.replay {
			warm = append(warm, c.wall*1e3)
		}
	}
	b.set("minst_per_cpu_s", all.perCPU())
	b.set("minst_per_s", all.perWall())
	b.set("jobs_per_s", float64(measured)/all.wall)
	b.set("stream_minst_per_cpu_s", stm.perCPU())
	b.set("stream_minst_per_s", stm.perWall())
	b.set("stall_minst_per_cpu_s", stall.perCPU())
	b.set("compute_minst_per_cpu_s", compute.perCPU())
	b.set("peak_heap_mb", b.heap.mib("twopass"))
	b.set("stream_peak_heap_mb", b.heap.mib("stream"))
	b.set("tip_err_pct", 100*tipErr/float64(measured))
	b.setLatency("cold", cold)
	b.setLatency("warm", warm)
	b.diag["suite_passes_min"] = minReps(stats)
	b.diag["cycles_digest"] = cyclesDigest(stats)

	if b.tr != nil {
		suiteLayers(b, stats, all, stm)
	}
}

// classSum adds up per-benchmark medians over a set of benchmarks.
type classSum struct {
	insts     uint64
	cpu, wall float64
}

func (s *classSum) add(insts uint64, cs []cost) {
	s.insts += insts
	s.cpu += medianCPU(cs)
	s.wall += medianWall(cs)
}

func (s classSum) perCPU() float64  { return float64(s.insts) / 1e6 / s.cpu }
func (s classSum) perWall() float64 { return float64(s.insts) / 1e6 / s.wall }

// evalBenchmark runs one benchmark through both routes and checks that they
// agree with each other, with earlier passes and with the reference cycles.
func evalBenchmark(b *bench, w *tip.Workload, st *benchStat, rc tip.RunConfig, checkRef bool) error {
	ctx := context.Background()
	parent := b.tr.begin("bench."+w.Name, b.root)
	defer b.tr.end(parent)

	b.settle(parent)
	b.heap.enter("twopass")
	s := now()
	sp := b.tr.begin("tip.CaptureWorkload", parent)
	capt, stats, err := tip.CaptureWorkload(w, rc.Core)
	b.tr.end(sp)
	if err != nil {
		b.heap.enter("")
		return err
	}
	captured := since(s)
	rs := now()
	sp = b.tr.begin("tip.RunCaptured", parent)
	res, err := tip.RunCaptured(ctx, w, capt, stats, rc)
	b.tr.end(sp)
	replay := since(rs)
	if err == nil && b.tr != nil {
		probeCapture(b, parent, w, capt, res, st)
	}
	cs := now()
	sp = b.tr.begin("trace.Capture.Close", parent)
	cerr := capt.Close()
	b.tr.end(sp)
	closed := since(cs)
	b.heap.enter("")
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("close capture: %w", cerr)
	}

	b.settle(parent)
	b.heap.enter("stream")
	s2 := now()
	sp = b.tr.begin("tip.RunStreaming", parent)
	sres, err := tip.RunStreaming(ctx, w, rc)
	b.tr.end(sp)
	streamed := since(s2)
	b.heap.enter("")
	if err != nil {
		return err
	}
	if b.tr != nil {
		b.settle(parent)
		s3 := now()
		sp = b.tr.begin("tip.MeasureStats", parent)
		if _, err := tip.MeasureStats(w, rc.Core); err != nil {
			b.tr.end(sp)
			return err
		}
		b.tr.end(sp)
		st.run = append(st.run, since(s3).cpu)
	}

	tipErr := res.Err(tip.KindTIP, tip.GranInstruction)
	oracle := res.Oracle.Profile.InstCycles
	switch {
	case sres.Stats.Cycles != stats.Cycles:
		return fmt.Errorf("streaming simulated %d cycles, two-pass %d", sres.Stats.Cycles, stats.Cycles)
	case !equalFloats(sres.Oracle.Profile.InstCycles, oracle):
		return fmt.Errorf("streaming and two-pass Oracle profiles differ")
	case checkRef && stats.Cycles != suiteCycles[w.Name]:
		return fmt.Errorf("simulated %d cycles, reference %d", stats.Cycles, suiteCycles[w.Name])
	case st.oracle != nil && (stats.Cycles != st.cycles || tipErr != st.tipErr || !equalFloats(oracle, st.oracle)):
		return fmt.Errorf("result differs from the first pass")
	}
	st.insts, st.cycles, st.tipErr, st.oracle = stats.Committed, stats.Cycles, tipErr, oracle
	st.twoPass = append(st.twoPass, captured.add(replay).add(closed))
	st.replay = append(st.replay, replay)
	st.stream = append(st.stream, streamed)
	st.capture = append(st.capture, captured.cpu)
	return nil
}

// probeCapture is the traced run's layer split of the two-pass route. Each
// probe replays the same capture into one layer's public consumer, so the
// layer's cost is the probe minus the decode it shares with every replay.
func probeCapture(b *bench, parent int, w *tip.Workload, capt *tip.TraceCapture, res *tip.Result, st *benchStat) {
	replay := func(name string, c trace.Consumer) float64 {
		b.settle(parent)
		s := now()
		sp := b.tr.begin(name, parent)
		if _, _, err := capt.Replay(c); err != nil {
			b.fail("%s: %s: %v", w.Name, name, err)
		}
		b.tr.end(sp)
		return since(s).cpu
	}
	st.decode = append(st.decode, replay("trace.Capture.Replay/counting", &trace.CountingConsumer{}))
	st.oracle1 = append(st.oracle1, replay("profiler.Oracle", profiler.NewOracle(w.Prog, false)))
	d := profiler.NewDispatcher()
	for _, k := range tip.AllKinds() {
		d.AddSampled(profiler.NewSampled(k, w.Prog, sampling.NewPeriodic(res.SampleInterval)))
	}
	st.sampled1 = append(st.sampled1, replay("profiler.Dispatcher/sampled", d))
	rep := &repeatCounter{}
	replay("perfbench.repeatCounter", rep)
	st.records, st.repeats, st.bytes = capt.Records(), rep.repeats, capt.Bytes()

	b.settle(parent)
	s := now()
	sp := b.tr.begin("profile.Profile.Error", parent)
	for _, p := range res.Sampled {
		for _, g := range []tip.Granularity{profile.GranInstruction, profile.GranBlock, profile.GranFunction} {
			p.Profile.Error(res.Oracle.Profile, g, true)
		}
	}
	b.tr.end(sp)
	st.errCalc = append(st.errCalc, since(s).cpu)
}

// repeatCounter counts commit-stage records identical to the one before
// apart from the cycle number: the cycles a run-length event would fold.
type repeatCounter struct {
	prev    trace.Record
	seen    bool
	repeats uint64
}

func (r *repeatCounter) OnCycle(rec *trace.Record) {
	cur := *rec
	cur.Cycle = r.prev.Cycle
	if r.seen && cur == r.prev {
		r.repeats++
	}
	r.prev, r.seen = *rec, true
}

func (r *repeatCounter) Finish(uint64) {}

// suiteLayers turns the traced run's probes into per-layer CPU-seconds per
// suite pass (each benchmark's median, summed).
func suiteLayers(b *bench, stats []*benchStat, all, stm classSum) {
	sum := func(pick func(*benchStat) float64, class string) float64 {
		t := 0.0
		for _, st := range stats {
			if len(st.run) > 0 && (class == "" || st.class == class) {
				t += pick(st)
			}
		}
		return t
	}
	med := func(f func(*benchStat) []float64) func(*benchStat) float64 {
		return func(st *benchStat) float64 { return median(f(st)) }
	}
	run := med(func(st *benchStat) []float64 { return st.run })
	decode := med(func(st *benchStat) []float64 { return st.decode })
	// The rows that split the two-pass route. profile.error_cpu_s is not
	// one of them: RunCaptured computes no errors, the caller does.
	rows := map[string]float64{
		"cpu.run_cpu_s":          sum(run, ""),
		"trace.encode_cpu_s":     sum(func(st *benchStat) float64 { return median(st.capture) - run(st) }, ""),
		"trace.decode_cpu_s":     sum(decode, ""),
		"profiler.oracle_cpu_s":  sum(func(st *benchStat) float64 { return median(st.oracle1) - decode(st) }, ""),
		"profiler.sampled_cpu_s": sum(func(st *benchStat) float64 { return median(st.sampled1) - decode(st) }, ""),
	}
	for name, v := range rows {
		b.set(name, v)
	}
	b.layers, b.routeCPU = rows, all.cpu
	b.set("cpu.stall_run_cpu_s", sum(run, "Stall"))
	b.set("cpu.compute_run_cpu_s", sum(run, "Compute"))
	b.set("profile.error_cpu_s", sum(med(func(st *benchStat) []float64 { return st.errCalc }), ""))
	b.set("stream.overlap_ratio", all.cpu/stm.wall)

	var bytes, cycles uint64
	rep := map[string][2]uint64{}
	for _, st := range stats {
		bytes += st.bytes
		cycles += st.cycles
		r := rep[st.class]
		rep[st.class] = [2]uint64{r[0] + st.repeats, r[1] + st.records}
	}
	b.set("trace.bytes_per_cycle", float64(bytes)/float64(cycles))
	for _, class := range []string{"Stall", "Compute"} {
		r := rep[class]
		b.set("trace."+strings.ToLower(class)+"_repeat_cycle_pct", 100*float64(r[0])/float64(r[1]))
	}
}

func minReps(stats []*benchStat) int {
	n := -1
	for _, st := range stats {
		if n < 0 || len(st.twoPass) < n {
			n = len(st.twoPass)
		}
	}
	return n
}

func cyclesDigest(stats []*benchStat) map[string]uint64 {
	out := map[string]uint64{}
	for _, st := range stats {
		out[st.name] = st.cycles
	}
	return out
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
