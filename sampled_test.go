package tip

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/tipprof/tip/internal/trace"
	"github.com/tipprof/tip/internal/workload"
)

// TestValidateSampled exercises every window-geometry rejection and the two
// legal shapes (proper sub-window, and window == interval where warmup is
// ignored).
func TestValidateSampled(t *testing.T) {
	mk := func(wc, wi, warm uint64) RunConfig {
		rc := DefaultRunConfig()
		rc.Sampled = true
		rc.WindowCycles = wc
		rc.WindowInterval = wi
		rc.WarmupCycles = warm
		return rc
	}
	cases := []struct {
		name    string
		rc      RunConfig
		wantErr string
	}{
		{"zero window", mk(0, 4096, 0), "WindowCycles must be positive"},
		{"zero interval", mk(1024, 0, 0), "WindowInterval must be positive"},
		{"window exceeds interval", mk(8192, 4096, 0), "exceeds WindowInterval"},
		{"warmup overflows interval", mk(1024, 4096, 3073), "exceed WindowInterval"},
		{"ok", mk(1024, 4096, 512), ""},
		{"full fraction ignores warmup", mk(4096, 4096, 1<<40), ""},
	}
	for _, tc := range cases {
		err := ValidateSampled(tc.rc)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestResolveSampled is the one table over sampled-request resolution that
// every surface (tipsim, tipbench, tipd, the experiment harness) shares:
// defaults fill zero fields, "auto" and literal warmups resolve as written
// ("0" means no warmup, never the default), and every geometry rejection
// surfaces before a run starts.
func TestResolveSampled(t *testing.T) {
	cases := []struct {
		name                   string
		window, interval       uint64
		warmup                 string
		wantW, wantI, wantWarm uint64
		wantErr                string
	}{
		{name: "defaults", wantW: DefaultSampledWindow, wantI: DefaultSampledInterval, wantWarm: DefaultSampledWarmup},
		{name: "auto at defaults", warmup: "auto", wantW: 8192, wantI: 131072, wantWarm: 8192},
		{name: "auto long gap", window: 8192, interval: 1 << 20, warmup: "auto", wantW: 8192, wantI: 1 << 20, wantWarm: AutoWarmupCycles(8192, 1<<20)},
		{name: "explicit", window: 2048, interval: 16384, warmup: "1024", wantW: 2048, wantI: 16384, wantWarm: 1024},
		{name: "explicit zero warmup is zero", window: 125000, interval: 131072, warmup: "0", wantW: 125000, wantI: 131072},
		{name: "default warmup overflows the gap", window: 125000, interval: 131072, wantErr: "exceed WindowInterval"},
		{name: "full fraction takes no default warmup", window: 4096, interval: 4096, wantW: 4096, wantI: 4096},
		{name: "full fraction ignores explicit warmup", window: 4096, interval: 4096, warmup: "2048", wantW: 4096, wantI: 4096, wantWarm: 2048},
		{name: "window exceeds interval", window: 1 << 20, interval: 4096, wantErr: "exceeds WindowInterval"},
		{name: "default window exceeds interval", interval: 4096, wantErr: "exceeds WindowInterval"},
		{name: "warmup overflows gap", window: 4096, interval: 8192, warmup: "8192", wantErr: "exceed WindowInterval"},
		{name: "warmup not a number", warmup: "lots", wantErr: "cycle count or \"auto\""},
	}
	for _, tc := range cases {
		rc := DefaultRunConfig()
		err := rc.ResolveSampled(tc.window, tc.interval, tc.warmup)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if !rc.Sampled || rc.WindowCycles != tc.wantW || rc.WindowInterval != tc.wantI || rc.WarmupCycles != tc.wantWarm {
			t.Errorf("%s: resolved sampled=%v %d/%d/%d, want %d/%d/%d", tc.name, rc.Sampled,
				rc.WindowCycles, rc.WindowInterval, rc.WarmupCycles, tc.wantW, tc.wantI, tc.wantWarm)
		}
	}
}

// TestRunSampledFullFractionIdentity is the degenerate-case pin: with
// WindowCycles == WindowInterval the sampled path must be bit-identical to
// full simulation at every layer — the encoded trace records, the profiler
// matrix, and the core statistics.
func TestRunSampledFullFractionIdentity(t *testing.T) {
	w, err := workload.LoadScaled("imagick", 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.SampleInterval = 1009 // pin the interval so captured/streaming/sampled calibrate nothing
	rc.Check = true
	rc.WithBreakdown = true

	refCapt, refStats, err := CaptureWorkload(w, rc.Core)
	if err != nil {
		t.Fatal(err)
	}
	defer refCapt.Close()
	ref, err := RunCaptured(context.Background(), w, refCapt, refStats, rc)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := RunStreaming(context.Background(), w, rc)
	if err != nil {
		t.Fatal(err)
	}

	src := rc
	src.Sampled = true
	src.WindowCycles = 4096
	src.WindowInterval = 4096
	src.WarmupCycles = 2048 // must be ignored at full fraction
	gotCapt := trace.NewCapture(0)
	defer gotCapt.Close()
	src.ExtraConsumers = []trace.Consumer{gotCapt}
	got, err := RunSampled(context.Background(), w, src)
	if err != nil {
		t.Fatal(err)
	}

	assertResultsIdentical(t, "sampled-vs-captured", ref, got)
	assertResultsIdentical(t, "sampled-vs-streaming", stream, got)
	if got.Stats != refStats {
		t.Fatalf("sampled stats %+v, want %+v", got.Stats, refStats)
	}
	sr := got.Sampling
	if sr == nil {
		t.Fatal("sampled run published no Sampling stats")
	}
	if sr.FFInstructions != 0 || sr.FFRepresentedCycles != 0 || sr.WarmupCyclesRun != 0 {
		t.Fatalf("full-fraction run fast-forwarded: %+v", sr)
	}
	if sr.DetailedFraction() != 1 {
		t.Fatalf("full-fraction run reports fraction %v", sr.DetailedFraction())
	}
	if sr.EstimatedCycles != refStats.Cycles || sr.MeasuredCycles != refStats.Cycles {
		t.Fatalf("full-fraction cycles: estimated %d measured %d, want %d",
			sr.EstimatedCycles, sr.MeasuredCycles, refStats.Cycles)
	}

	// Trace layer: the teed capture's encoded bytes must equal the
	// reference capture's, record for record.
	if gotCapt.Records() != refCapt.Records() || gotCapt.Cycles() != refCapt.Cycles() {
		t.Fatalf("capture shape: %d records/%d cycles, want %d/%d",
			gotCapt.Records(), gotCapt.Cycles(), refCapt.Records(), refCapt.Cycles())
	}
	var refBuf, gotBuf bytes.Buffer
	if _, err := refCapt.WriteTo(&refBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := gotCapt.WriteTo(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatal("full-fraction sampled trace bytes differ from full simulation")
	}
}

// TestRunSampledFullFractionCalibrationParity pins the pilot-calibration
// path: at full fraction the sampled run's measured stream equals the full
// trace, so its pilot estimate — and therefore its calibrated interval and
// every profile — must match RunStreaming's exactly.
func TestRunSampledFullFractionCalibrationParity(t *testing.T) {
	w, err := workload.LoadScaled("imagick", 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.Check = true
	stream, err := RunStreaming(context.Background(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	src := rc
	src.Sampled = true
	src.WindowCycles = 4096
	src.WindowInterval = 4096
	got, err := RunSampled(context.Background(), w, src)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, "calibrated full fraction", stream, got)
	if got.Stats != stream.Stats {
		t.Fatalf("sampled stats %+v, want %+v", got.Stats, stream.Stats)
	}
}

// TestRunSampledConvergence is the metamorphic accuracy check across
// detailed window fractions: at fraction 1 the stitched cycle estimate's
// error against the full run must be exactly zero, and instruction
// conservation (detailed commits plus fast-forwarded instructions equal the
// full run's commits) holds at every fraction.
func TestRunSampledConvergence(t *testing.T) {
	w, err := workload.LoadScaled("imagick", 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MeasureStats(w, DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}

	const interval = 1 << 13
	var cpiErr float64
	for _, div := range []uint64{8, 4, 2, 1} {
		rc := DefaultRunConfig()
		rc.Sampled = true
		rc.Check = true
		rc.WindowInterval = interval
		rc.WindowCycles = interval / div
		if div > 1 {
			rc.WarmupCycles = 1 << 10
		}
		res, err := RunSampled(context.Background(), w, rc)
		if err != nil {
			t.Fatalf("1/%d: %v", div, err)
		}
		est := res.Stats.Cycles
		cpiErr = absFrac(est, full.Cycles)
		t.Logf("fraction 1/%d: est %d cycles vs full %d (err %.4f, windows %d, ff %d insts)",
			div, est, full.Cycles, cpiErr, res.Sampling.Windows, res.Sampling.FFInstructions)
		if res.Stats.Committed != full.Committed {
			t.Fatalf("1/%d: committed %d (detailed+ff), full run %d",
				div, res.Stats.Committed, full.Committed)
		}
	}
	if cpiErr != 0 {
		t.Fatalf("fraction 1 error %.6f, want exactly 0", cpiErr)
	}
}

// absFrac returns |a-b|/b.
func absFrac(a, b uint64) float64 {
	if a > b {
		return float64(a-b) / float64(b)
	}
	return float64(b-a) / float64(b)
}

// TestRunSampledReplayWorkersIdentity pins shard-count independence for the
// sampled path: the same sampled run replayed over 1 and 4 workers must
// produce deeply equal profiler state and identical schedules.
func TestRunSampledReplayWorkersIdentity(t *testing.T) {
	w, err := workload.LoadScaled("x264", 1, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	var ref *Result
	for _, workers := range []int{1, 4} {
		rc := DefaultRunConfig()
		rc.Sampled = true
		rc.WindowCycles = 1 << 11
		rc.WindowInterval = 1 << 13
		rc.WarmupCycles = 1 << 9
		rc.Check = true
		rc.ReplayWorkers = workers
		res, err := RunSampled(context.Background(), w, rc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		assertResultsIdentical(t, fmt.Sprintf("workers=%d", workers), ref, res)
		if ref.Stats != res.Stats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, res.Stats, ref.Stats)
		}
		if got, want := normalizeSampling(res.Sampling), normalizeSampling(ref.Sampling); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: sampling %+v, want %+v", workers, got, want)
		}
	}
}

// TestRunSampledRejectsBadGeometry checks RunSampled surfaces validation
// errors before simulating anything.
func TestRunSampledRejectsBadGeometry(t *testing.T) {
	w, err := workload.LoadScaled("mcf", 1, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.Sampled = true
	rc.WindowCycles = 0
	rc.WindowInterval = 4096
	if _, err := RunSampled(context.Background(), w, rc); err == nil ||
		!strings.Contains(err.Error(), "WindowCycles must be positive") {
		t.Fatalf("error %v, want WindowCycles rejection", err)
	}
}

// TestRunDispatchesSampled checks the Run front door honors rc.Sampled.
func TestRunDispatchesSampled(t *testing.T) {
	w, err := workload.LoadScaled("mcf", 1, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	rc := DefaultRunConfig()
	rc.Sampled = true
	rc.WindowCycles = 1 << 11
	rc.WindowInterval = 1 << 13
	res, err := Run(w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampling == nil {
		t.Fatal("Run with rc.Sampled returned no Sampling stats")
	}
	if res.Sampling.FFInstructions == 0 {
		t.Fatal("sampled run fast-forwarded nothing; window geometry too lax for this workload")
	}
}
