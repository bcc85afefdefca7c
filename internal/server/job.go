package server

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/experiments"
	"github.com/tipprof/tip/internal/profile"
	"github.com/tipprof/tip/internal/profiler"
	"github.com/tipprof/tip/internal/workload"
)

// Job states.
const (
	stateQueued   = "queued"
	stateRunning  = "running"
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// CoreJobSpec names one core's workload in a multicore job.
type CoreJobSpec struct {
	// Bench is the benchmark name (required; see tipsim -list).
	Bench string `json:"bench"`
	// Seed is the workload seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Scale is the approximate dynamic-instruction budget (0 = full).
	Scale uint64 `json:"scale,omitempty"`
}

// JobSpec is the body of POST /v1/jobs: which benchmark to profile and how.
type JobSpec struct {
	// Bench is the benchmark name (required unless Cores is set; see
	// tipsim -list).
	Bench string `json:"bench,omitempty"`
	// Seed is the workload seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Scale is the approximate dynamic-instruction budget (0 = full).
	Scale uint64 `json:"scale,omitempty"`
	// Profilers restricts the sampled-profiler set (default: all).
	Profilers []string `json:"profilers,omitempty"`
	// Granularity selects the error-reporting symbol level:
	// "instruction" (default), "block", or "function".
	Granularity string `json:"granularity,omitempty"`
	// TargetSamples calibrates the sampling interval (default 4096).
	TargetSamples uint64 `json:"target_samples,omitempty"`
	// ReplayWorkers fans the replay out over this many goroutines
	// (default 2 — sharded replays cancel between chunks, so DELETE
	// aborts promptly; results are byte-identical at any count).
	ReplayWorkers int `json:"replay_workers,omitempty"`
	// Sampled runs the job under sampled simulation: detailed measurement
	// windows alternating with functional fast-forward, with the cycle
	// total stitched from the window CPIs. Sampled jobs bypass the capture
	// cache — fast-forward legs emit no trace records, so there is no full
	// capture to store or reuse.
	Sampled bool `json:"sampled,omitempty"`
	// WindowCycles and WindowInterval set the sampled schedule geometry
	// (0 = the defaults tip.RunConfig.ResolveSampled applies). WarmupCycles
	// is the detailed warmup before each window: absent selects the
	// default, and an explicit 0 means no warmup. All three require
	// "sampled"; the normalized spec echoes the resolved geometry.
	WindowCycles   uint64  `json:"window_cycles,omitempty"`
	WindowInterval uint64  `json:"window_interval,omitempty"`
	WarmupCycles   *uint64 `json:"warmup_cycles,omitempty"`
	// WarmupAuto sizes the warmup from the fast-forward leg length
	// (tip.AutoWarmupCycles), overriding warmup_cycles.
	WarmupAuto bool `json:"warmup_auto,omitempty"`
	// WindowWorkers runs the sampled windows on up to this many
	// concurrent worker cores (clamped to [1,16]; 0 means 1; results are
	// byte-identical at any count).
	WindowWorkers int `json:"window_workers,omitempty"`
	// Cores runs a multi-programmed lockstep job: workload i on core i of
	// one shared-LLC system, profiled per core from a single core-tagged
	// capture. Mutually exclusive with Bench/Seed/Scale and Sampled. The
	// capture is cached keyed by the ordered core set — order matters,
	// because physical placement changes shared-cache arbitration.
	Cores []CoreJobSpec `json:"cores,omitempty"`
}

// normalize validates the spec, applies defaults, and resolves the parsed
// profiler kinds and granularity.
func (sp *JobSpec) normalize() ([]profiler.Kind, profile.Granularity, error) {
	if len(sp.Cores) > 0 {
		switch {
		case sp.Bench != "" || sp.Seed != 0 || sp.Scale != 0:
			return nil, 0, fmt.Errorf("cores is mutually exclusive with bench/seed/scale")
		case sp.Sampled:
			return nil, 0, fmt.Errorf("cores cannot be combined with sampled")
		case len(sp.Cores) > 4:
			return nil, 0, fmt.Errorf("at most 4 cores (got %d)", len(sp.Cores))
		}
		for i := range sp.Cores {
			c := &sp.Cores[i]
			if c.Bench == "" {
				return nil, 0, fmt.Errorf("cores[%d]: bench is required", i)
			}
			if !validBench(c.Bench) {
				return nil, 0, fmt.Errorf("cores[%d]: unknown benchmark %q", i, c.Bench)
			}
			if c.Seed == 0 {
				c.Seed = 1
			}
		}
	} else {
		if sp.Bench == "" {
			return nil, 0, fmt.Errorf("bench is required")
		}
		if !validBench(sp.Bench) {
			return nil, 0, fmt.Errorf("unknown benchmark %q", sp.Bench)
		}
		if sp.Seed == 0 {
			sp.Seed = 1
		}
	}
	if sp.ReplayWorkers == 0 {
		sp.ReplayWorkers = 2
	}
	if sp.ReplayWorkers < 1 || sp.ReplayWorkers > 16 {
		return nil, 0, fmt.Errorf("replay_workers %d out of range [1,16]", sp.ReplayWorkers)
	}
	if !sp.Sampled {
		switch {
		case sp.WindowCycles != 0:
			return nil, 0, fmt.Errorf("window_cycles requires sampled")
		case sp.WindowInterval != 0:
			return nil, 0, fmt.Errorf("window_interval requires sampled")
		case sp.WarmupCycles != nil:
			return nil, 0, fmt.Errorf("warmup_cycles requires sampled")
		case sp.WarmupAuto:
			return nil, 0, fmt.Errorf("warmup_auto requires sampled")
		case sp.WindowWorkers != 0:
			return nil, 0, fmt.Errorf("window_workers requires sampled")
		}
	} else {
		sp.WindowWorkers = min(max(sp.WindowWorkers, 1), 16)
		warmup := ""
		switch {
		case sp.WarmupAuto:
			warmup = "auto"
		case sp.WarmupCycles != nil:
			warmup = strconv.FormatUint(*sp.WarmupCycles, 10)
		}
		rc := tip.DefaultRunConfig()
		if err := rc.ResolveSampled(sp.WindowCycles, sp.WindowInterval, warmup); err != nil {
			return nil, 0, err
		}
		sp.WindowCycles, sp.WindowInterval, sp.WarmupCycles = rc.WindowCycles, rc.WindowInterval, &rc.WarmupCycles
	}
	var kinds []profiler.Kind
	if len(sp.Profilers) > 0 {
		byName := map[string]profiler.Kind{}
		for _, k := range profiler.AllKinds() {
			byName[strings.ToLower(k.String())] = k
		}
		for _, name := range sp.Profilers {
			k, ok := byName[strings.ToLower(strings.TrimSpace(name))]
			if !ok {
				return nil, 0, fmt.Errorf("unknown profiler %q", name)
			}
			kinds = append(kinds, k)
		}
	}
	var gran profile.Granularity
	switch strings.ToLower(sp.Granularity) {
	case "", "instruction":
		gran = profile.GranInstruction
		sp.Granularity = "instruction"
	case "block", "basic-block":
		gran = profile.GranBlock
		sp.Granularity = "block"
	case "function":
		gran = profile.GranFunction
	default:
		return nil, 0, fmt.Errorf("unknown granularity %q (instruction, block, function)", sp.Granularity)
	}
	return kinds, gran, nil
}

func validBench(name string) bool {
	if name == "imagick-opt" {
		return true
	}
	_, ok := workload.ByName(name)
	return ok
}

// job is one profiling job's full lifecycle. Mutable fields are guarded by
// the owning Server's mu.
type job struct {
	id   string
	spec JobSpec

	kinds []profiler.Kind
	gran  profile.Granularity

	state    string
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc

	cacheHit bool
	// source records where the job's capture came from: "cache" (local LRU
	// or a shared singleflight), "store" (pulled from the fleet's shared
	// capture store), "simulated" (a fresh cycle-level simulation), or
	// "sampled" (sampled jobs always simulate their windows).
	source string
	// timing reuses the experiments phase-split struct: capture vs replay
	// wall-clock plus the replay worker count actually used.
	timing experiments.Timing

	outcome *jobOutcome
}

// Capture sources for job.source / jobOutcome.source.
const (
	sourceCache     = "cache"
	sourceStore     = "store"
	sourceSimulated = "simulated"
	sourceSampled   = "sampled"
)

// jobOutcome is what a successful execution hands back to the server.
// Exactly one of res (single-core) and multi (multicore) is set.
type jobOutcome struct {
	res      *tip.Result
	multi    *tip.MulticoreResult
	cacheHit bool
	source   string
	timing   experiments.Timing
}

// executeJob is the real job runner. A sampled job runs its schedule
// directly. Every other job takes one path: withCapture obtains the capture
// — from the local cache, the fleet store, or a fresh simulation run by the
// key's flight leader — and the job's profiler matrix replays it, calibrated
// from the capture's exact cycle count. A cold job and any warm rerun of the
// same spec therefore replay the same capture and return identical results.
// Cancelling ctx aborts the job in any phase.
func (s *Server) executeJob(ctx context.Context, jb *job) (*jobOutcome, error) {
	spec := jb.spec
	out := &jobOutcome{}
	rc := tip.DefaultRunConfig()
	rc.Core = s.cfg.Core
	rc.Profilers = jb.kinds
	rc.TargetSamples = spec.TargetSamples
	rc.ReplayWorkers = spec.ReplayWorkers
	out.timing.ReplayWorkers = spec.ReplayWorkers

	if len(spec.Cores) > 0 {
		return s.executeMulticoreJob(ctx, spec, rc, out)
	}

	w, err := workload.LoadScaled(spec.Bench, spec.Seed, spec.Scale)
	if err != nil {
		return nil, err
	}

	if spec.Sampled {
		// Sampled jobs skip the capture cache: the fast-forward legs emit
		// no trace records, so there is no full capture to store, and
		// replaying someone else's cached full trace would charge this job
		// the full-simulation cost it asked to avoid. Simulation and
		// profiling run fused in one pass, so the wall-clock is reported as
		// replay time.
		rc.Sampled = true
		rc.WindowCycles = spec.WindowCycles
		rc.WindowInterval = spec.WindowInterval
		rc.WarmupCycles = *spec.WarmupCycles // normalize resolved the geometry
		rc.WindowWorkers = spec.WindowWorkers
		start := time.Now()
		res, err := tip.RunSampled(ctx, w, rc)
		if err != nil {
			return nil, err
		}
		out.timing.Replay = time.Since(start)
		out.res = res
		out.source = sourceSampled
		return out, nil
	}

	key := captureKey{Bench: spec.Bench, Seed: spec.Seed, Scale: spec.Scale, Core: s.coreHash}
	err = s.withCapture(ctx, key, out,
		func(ctx context.Context) (*tip.TraceCapture, []tip.CoreStats, error) {
			capt, stats, err := tip.CaptureWorkloadContext(ctx, w, rc.Core)
			return capt, []tip.CoreStats{stats}, err
		},
		func(ent *cacheEntry) (err error) {
			out.res, err = tip.RunCaptured(ctx, w, ent.capture, ent.stats[0], rc)
			return err
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// executeMulticoreJob runs a "cores" job: the whole core set is simulated
// lockstep into one core-tagged v3 capture, which per-core profiler
// matrices then demultiplex.
func (s *Server) executeMulticoreJob(ctx context.Context, spec JobSpec, rc tip.RunConfig, out *jobOutcome) (*jobOutcome, error) {
	ws := make([]*tip.Workload, len(spec.Cores))
	for i, c := range spec.Cores {
		w, err := workload.LoadScaled(c.Bench, c.Seed, c.Scale)
		if err != nil {
			return nil, fmt.Errorf("cores[%d]: %w", i, err)
		}
		ws[i] = w
	}
	key := captureKey{Cores: coreSetHash(spec.Cores), Core: s.coreHash}
	err := s.withCapture(ctx, key, out,
		func(ctx context.Context) (*tip.TraceCapture, []tip.CoreStats, error) {
			return tip.CaptureMulticore(ctx, ws, rc.Core)
		},
		func(ent *cacheEntry) (err error) {
			out.multi, err = tip.RunMulticoreCaptured(ctx, ws, ent.capture, ent.stats, rc)
			return err
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// withCapture is the skeleton every non-sampled job shares: it takes key's
// capture from the local cache (or a concurrent flight for the same key),
// else from the fleet store — any node's capture of a key is byte-identical
// to what this one would produce — else runs simulate and publishes the
// result to the store; then it hands the ref-held entry to replay. The
// phases are timed into out.timing and the capture's origin recorded in out.
func (s *Server) withCapture(ctx context.Context, key captureKey, out *jobOutcome, simulate captureFn, replay func(*cacheEntry) error) error {
	fromStore := false
	start := time.Now()
	ent, hit, err := s.cache.getOrCapture(ctx, key, func(ctx context.Context) (*tip.TraceCapture, []tip.CoreStats, error) {
		if capt, stats, ok := s.storeGet(key); ok {
			fromStore = true
			return capt, stats, nil
		}
		capt, stats, err := simulate(ctx)
		if err != nil {
			return nil, nil, err
		}
		s.met.simulationRan()
		s.storePut(key, capt, stats)
		return capt, stats, nil
	})
	if err != nil {
		return err
	}
	defer s.cache.release(ent)
	out.cacheHit = hit
	out.source = captureSource(hit, fromStore)
	out.timing.Capture = time.Since(start)

	repStart := time.Now()
	err = replay(ent)
	out.timing.Replay = time.Since(repStart)
	return err
}

// storeGet pulls key's capture from the shared store, if one is configured.
func (s *Server) storeGet(key captureKey) (*tip.TraceCapture, []tip.CoreStats, bool) {
	st := s.cfg.Store
	if st == nil {
		return nil, nil, false
	}
	return st.Get(key.id())
}

// storePut publishes a freshly simulated capture to the shared store,
// best-effort: a failed publish costs the fleet a future warm hit, not this
// job.
func (s *Server) storePut(key captureKey, capt *tip.TraceCapture, stats []tip.CoreStats) {
	st := s.cfg.Store
	if st == nil {
		return
	}
	if err := st.Put(key.id(), capt, stats); err != nil {
		s.cfg.Logf("tipd: publishing %s to store: %v", key.id(), err)
	}
}

func captureSource(hit, fromStore bool) string {
	switch {
	case hit:
		return sourceCache
	case fromStore:
		return sourceStore
	default:
		return sourceSimulated
	}
}

// --- JSON views ------------------------------------------------------------

// TimingView is a job's phase split in seconds.
type TimingView struct {
	CaptureSeconds float64 `json:"capture_seconds"`
	ReplaySeconds  float64 `json:"replay_seconds"`
	ReplayWorkers  int     `json:"replay_workers"`
}

// SamplingView summarises a sampled job's schedule and stitching: how many
// measurement windows ran, how much of the estimate was actually simulated
// in detail, and how many instructions were fast-forwarded. The job's
// "cycles" field is the stitched estimate, not a measured count.
type SamplingView struct {
	Windows          uint64  `json:"windows"`
	MeasuredCycles   uint64  `json:"measured_cycles"`
	DetailedFraction float64 `json:"detailed_fraction"`
	FFInstructions   uint64  `json:"ff_instructions"`
	// WindowWorkers, SweepSeconds and MeasureSeconds describe the
	// schedule's worker pool and its wall-clock split.
	WindowWorkers  int     `json:"window_workers,omitempty"`
	SweepSeconds   float64 `json:"sweep_seconds,omitempty"`
	MeasureSeconds float64 `json:"measure_seconds,omitempty"`
}

// FuncShare is one row of a function-granularity profile.
type FuncShare struct {
	Name   string  `json:"name"`
	Cycles float64 `json:"cycles"`
	Share  float64 `json:"share"`
}

// ResultView is a completed job's evaluation summary: run statistics, the
// Oracle cycle stack, per-profiler errors at the requested granularity, and
// function-granularity profiles for Oracle and every modelled profiler.
//
// A multicore job's top-level view carries only Cycles (the interleaved
// run's length) plus one full per-core view per entry of Cores, each tagged
// with its benchmark name.
type ResultView struct {
	Bench          string                 `json:"bench,omitempty"`
	Cycles         uint64                 `json:"cycles"`
	Committed      uint64                 `json:"committed,omitempty"`
	IPC            float64                `json:"ipc,omitempty"`
	SampleInterval uint64                 `json:"sample_interval,omitempty"`
	Class          string                 `json:"class,omitempty"`
	CycleStack     map[string]float64     `json:"cycle_stack,omitempty"`
	Errors         map[string]float64     `json:"errors,omitempty"`
	Profiles       map[string][]FuncShare `json:"profiles,omitempty"`
	Sampling       *SamplingView          `json:"sampling,omitempty"`
	Cores          []*ResultView          `json:"cores,omitempty"`
}

// JobView is the wire representation of a job.
type JobView struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Spec     JobSpec    `json:"spec"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	CacheHit bool       `json:"cache_hit"`
	// CaptureSource says where the capture came from: "cache", "store",
	// "simulated", or "sampled". Empty until the job finishes.
	CaptureSource string      `json:"capture_source,omitempty"`
	Timing        *TimingView `json:"timing,omitempty"`
	Result        *ResultView `json:"result,omitempty"`
}

// view renders jb; the caller holds s.mu.
func (s *Server) view(jb *job) JobView {
	v := JobView{
		ID:            jb.id,
		State:         jb.state,
		Spec:          jb.spec,
		Error:         jb.errMsg,
		Created:       jb.created,
		CacheHit:      jb.cacheHit,
		CaptureSource: jb.source,
	}
	if !jb.started.IsZero() {
		t := jb.started
		v.Started = &t
	}
	if !jb.finished.IsZero() {
		t := jb.finished
		v.Finished = &t
	}
	if jb.state == stateDone || jb.state == stateFailed {
		v.Timing = &TimingView{
			CaptureSeconds: jb.timing.Capture.Seconds(),
			ReplaySeconds:  jb.timing.Replay.Seconds(),
			ReplayWorkers:  jb.timing.ReplayWorkers,
		}
	}
	if jb.outcome != nil && jb.outcome.res != nil {
		v.Result = resultView(jb.outcome.res, jb.gran)
	}
	if jb.outcome != nil && jb.outcome.multi != nil {
		mv := &ResultView{Cycles: jb.outcome.multi.TotalCycles}
		for i, res := range jb.outcome.multi.Cores {
			cv := resultView(res, jb.gran)
			cv.Bench = jb.spec.Cores[i].Bench
			mv.Cores = append(mv.Cores, cv)
		}
		v.Result = mv
	}
	return v
}

func resultView(res *tip.Result, gran profile.Granularity) *ResultView {
	stack := res.Stack()
	norm := stack.Normalized()
	rv := &ResultView{
		Cycles:         res.Stats.Cycles,
		Committed:      res.Stats.Committed,
		IPC:            res.Stats.IPC(),
		SampleInterval: res.SampleInterval,
		Class:          stack.Class(),
		CycleStack:     map[string]float64{},
		Errors:         map[string]float64{},
		Profiles:       map[string][]FuncShare{},
	}
	for i, frac := range norm {
		rv.CycleStack[profile.Category(i).String()] = frac
	}
	for k := range res.Sampled {
		rv.Errors[k.String()] = res.Err(k, gran)
	}
	if sr := res.Sampling; sr != nil {
		rv.Sampling = &SamplingView{
			Windows:          sr.Windows,
			MeasuredCycles:   sr.MeasuredCycles,
			DetailedFraction: sr.DetailedFraction(),
			FFInstructions:   sr.FFInstructions,
			WindowWorkers:    sr.WindowWorkers,
			SweepSeconds:     sr.SweepSeconds,
			MeasureSeconds:   sr.MeasureSeconds,
		}
	}
	rv.Profiles["Oracle"] = funcShares(res.Oracle.Profile)
	for k, sp := range res.Sampled {
		rv.Profiles[k.String()] = funcShares(sp.Profile)
	}
	return rv
}

// funcShares aggregates a profile to function granularity (application code
// only, like the paper's evaluation).
func funcShares(p *profile.Profile) []FuncShare {
	agg := p.Aggregate(profile.GranFunction, true)
	total := 0.0
	for _, v := range agg {
		total += v
	}
	out := []FuncShare{}
	for i, v := range agg {
		if v == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = v / total
		}
		out = append(out, FuncShare{Name: p.Prog.Funcs[i].Name, Cycles: v, Share: share})
	}
	return out
}
