// Command perfbench is the repository's performance benchmark: it times
// calls into the simulator's public functions from outside, checks their
// outputs, and prints one JSON result line. See README.md beside this file.
//
//	perfbench --workload suite|sampled|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line carries the end-to-end metrics; with --trace 1
// the run also records spans and probes and carries the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef declares one reported metric.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared is the metric list of BENCHMARK.json at the repository root: the
// end-to-end metrics every workload reports with --trace 0, and the
// per-layer metrics of the traced run. README.md says what each means.
type declared struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDeclared(path string) (*declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	return &d, nil
}

// diagnosticsDir receives each run's fingerprint, values and spans.
const diagnosticsDir = ".bench_build/perfbench"

// workloads maps --workload to its runner.
var workloads = map[string]func(*bench){
	"suite":   runSuite,
	"sampled": runSampled,
	"serve":   runServe,
}

// bench is one benchmark run's state and results.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	tiny     bool // smoke-test scale: every code path, seconds of work

	tr   *tracer // nil unless --trace 1
	root int     // the run's root span
	heap *heapPeak

	m                 map[string]float64
	attempted, failed int
	diag              map[string]any
	timedCPU          float64 // process CPU over the timed section
	// layers are the traced run's layer rows in CPU-seconds, and routeCPU
	// the process CPU of the measured route they should add up to.
	layers   map[string]float64
	routeCPU float64
}

func main() {
	var (
		wl      = flag.String("workload", "", "suite, sampled or serve")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		traced  = flag.Int("trace", 0, "1 = traced run with per-layer metrics")
	)
	flag.Parse()
	if _, ok := workloads[*wl]; !ok || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload suite|sampled|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := decl.EndToEnd
	if *traced == 1 {
		defs = decl.PerLayer
	}
	res, err := execute(*wl, *seed, *seconds, *traced == 1, false, defs, diagnosticsDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// measured names every metric the run measured, declared or not.
	measured map[string]bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and assembles its result from the metrics defs.
// It fails when the run could not measure what it reports; wrong outputs are
// counted, not fatal.
func execute(wl string, seed uint64, seconds float64, traced, tiny bool, defs []metricDef, outDir string) (*result, error) {
	b := &bench{
		workload: wl, seed: seed, seconds: seconds, tiny: tiny,
		m: map[string]float64{}, diag: map[string]any{}, root: -1,
	}
	if traced {
		b.tr = newTracer(fmt.Sprintf("%s-%d", wl, seed))
		b.root = b.tr.begin("perfbench."+wl, -1)
	}
	b.heap = startHeapPeak()
	workloads[wl](b)
	b.heap.close()
	b.tr.end(b.root)

	if b.attempted == 0 {
		return nil, fmt.Errorf("%s: nothing was attempted", wl)
	}
	if traced {
		b.layerCoverage()
	}
	b.set("ok_pct", 100*float64(b.attempted-b.failed)/float64(b.attempted))
	b.set("fail_pct", 100*float64(b.failed)/float64(b.attempted))
	b.fingerprint()

	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{}, measured: map[string]bool{}}
	for n := range b.m {
		res.measured[n] = true
	}
	for _, d := range defs {
		v, ok := b.m[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("%s did not measure %s", wl, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if err := b.writeDiagnostics(outDir, traced); err != nil {
		return nil, err
	}
	return res, nil
}

func (b *bench) set(name string, v float64) { b.m[name] = v }

// fail counts a wrong or failed operation and says why on stderr.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", b.workload, fmt.Sprintf(format, args...))
}

// setLatency reports the p50 and p90 of samples (ms) as <kind>_p50_ms and
// <kind>_p90_ms, with the sample count as <kind>_samples.
func (b *bench) setLatency(kind string, samples []float64) {
	b.set(kind+"_p50_ms", quantile(samples, 0.5))
	b.set(kind+"_p90_ms", quantile(samples, 0.9))
	b.set(kind+"_samples", float64(len(samples)))
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 5

// setup runs fn setupReps times and reports the median process CPU time of
// one repetition as setup_s: like throughput, set-up is charged in
// CPU-seconds so that steal does not show as a slower set-up. Before every
// repetition but the first, reset (if not nil) undoes the previous one
// outside the timing, so every timed repetition does the same work. The last
// repetition's state is what the run measures.
func (b *bench) setup(fn, reset func()) {
	var cpus []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && reset != nil {
			sp := b.tr.begin("perfbench.reset", b.root)
			reset()
			b.tr.end(sp)
		}
		b.settle(b.root)
		s := now()
		sp := b.tr.begin("perfbench.setup", b.root)
		fn()
		b.tr.end(sp)
		cpus = append(cpus, since(s).cpu)
	}
	b.set("setup_s", median(cpus))
}

// timed runs fn as the measured section. fn polls deadline to learn when
// the run's seconds are up; the steal share and process CPU over the section
// go to the diagnostics.
func (b *bench) timed(fn func(deadline func() bool)) {
	end := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	ps0, okStat := readProcStat()
	c0 := cpuSeconds()
	fn(func() bool { return time.Now().After(end) })
	b.timedCPU = cpuSeconds() - c0
	if ps1, ok := readProcStat(); ok && okStat {
		b.diag["steal_pct"] = stealPct(ps0, ps1)
	}
	b.diag["timed_cpu_s"] = b.timedCPU
}

// settle collects garbage outside any measured call, under a span so the
// traced run attributes the collection's CPU.
func (b *bench) settle(parent int) {
	sp := b.tr.begin("runtime.GC", parent)
	settle()
	b.tr.end(sp)
}

// maxUncovered is how far, as a share of the measured route's process CPU,
// the traced run's layer rows may fall from it (ROADMAP direction 1: the
// layers account for the run).
const maxUncovered = 0.05

// layerCoverage reports how much of the measured route's process CPU the
// layer rows account for, and what recording the spans cost. The rows can
// exceed the route when they come from separate probe calls, so the test
// is two-sided.
func (b *bench) layerCoverage() {
	root := b.tr.spans[b.root]
	total := root.EndCPU - root.StartCPU
	covered, share := 0.0, 0.0
	for _, t := range b.layers {
		covered += t
	}
	if b.routeCPU > 0 {
		share = covered / b.routeCPU
	}
	b.set("trace.covered_pct", 100*share)
	// A tiny run's calls last milliseconds and its CPU profile holds a few
	// dozen samples, too few to test coverage against.
	if !b.tiny && (b.routeCPU <= 0 || math.Abs(share-1) > maxUncovered) {
		b.fail("layer rows add up to %.1f%% of the measured route's %.2f CPU-seconds, want 100 ± %.0f%%",
			100*share, b.routeCPU, 100*maxUncovered)
	}
	per := spanCost(10_000)
	b.set("trace.overhead_pct", 100*per.cpu*float64(len(b.tr.spans))/total)
	b.diag["layer_rows_cpu_s"] = b.layers
	b.diag["route_cpu_s"] = b.routeCPU
	b.diag["span_self_cpu_s"] = b.tr.selfCPU()
	b.diag["process_cpu_s"] = total
}

// profileRows covers a route whose layers run where no span can wrap them
// with a CPU profile of it, folded by layer (foldProfile). The repository's
// layers are the rows; the catch-alls — the Go runtime and the daemon's
// network stack — are what the rows leave uncovered of the program's CPU.
// The benchmark's own code, its HTTP client included, is no part of the
// program and counts on neither side. The profile samples the CPU time
// getrusage counts, a few percent short; the diagnostics keep both. calls is
// how many route calls the profile spans; the layer metrics are per call.
func (b *bench) profileRows(rows map[string]float64, calls int) {
	named := map[string]float64{}
	program := 0.0
	for l, t := range rows {
		if l == benchmarkLayer {
			continue
		}
		program += t
		if !catchAll[l] {
			named[l] = t
		}
	}
	b.layers, b.routeCPU = named, program
	b.diag["profile_layer_cpu_s"] = rows
	n := float64(calls)
	b.set("cpu.run_cpu_s", rows["cpu"]/n)
	b.set("trace.decode_cpu_s", rows["trace"]/n)
	b.set("profiler.oracle_cpu_s", rows["profiler.oracle"]/n)
	b.set("profiler.sampled_cpu_s", rows["profiler.sampled"]/n)
}

// fingerprint records why a run might be noisy: the host, the toolchain,
// the commit and the size of the program under test. None of it is gated.
func (b *bench) fingerprint() {
	b.diag["nproc"] = runtime.NumCPU()
	b.diag["gomaxprocs"] = runtime.GOMAXPROCS(0)
	b.diag["go_version"] = runtime.Version()
	b.diag["cpu_model"] = cpuModel()
	b.diag["commit"] = commit()
	b.diag["production_go_lines"] = productionLines(".")
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// productionLines counts the lines of non-test Go under root, leaving out
// the benchmark itself and build output.
func productionLines(root string) int {
	n := 0
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case "perfbench", ".bench_build", ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			if data, err := os.ReadFile(path); err == nil {
				n += strings.Count(string(data), "\n")
			}
		}
		return nil
	})
	return n
}

// writeDiagnostics writes the run's fingerprint, every measured value and,
// for a traced run, its spans, to outDir.
func (b *bench) writeDiagnostics(outDir string, traced bool) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("diagnostics: %w", err)
	}
	names := make([]string, 0, len(b.m))
	for n := range b.m {
		names = append(names, n)
	}
	sort.Strings(names)
	values := map[string]float64{}
	for _, n := range names {
		values[n] = b.m[n]
	}
	doc := map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.seconds, "trace": traced,
		"attempted": b.attempted, "failed": b.failed, "values": values, "host": b.diag,
	}
	if b.tr != nil {
		doc["spans"] = b.tr.spans
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("diagnostics: %w", err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", b.workload, b.seed, map[bool]int{false: 0, true: 1}[traced])
	if err := os.WriteFile(filepath.Join(outDir, name), data, 0o644); err != nil {
		return fmt.Errorf("diagnostics: %w", err)
	}
	return nil
}
