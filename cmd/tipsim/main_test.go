package main

import (
	"strings"
	"testing"

	tip "github.com/tipprof/tip"
)

// TestConfigureSampledRejections exercises tipsim's own sampled-mode flag
// rejections and the accepted shapes; the window geometry itself is
// resolved and validated by tip.RunConfig.ResolveSampled (TestResolveSampled).
func TestConfigureSampledRejections(t *testing.T) {
	cases := []struct {
		name             string
		sampled          bool
		window, interval uint64
		warmup           string
		workers          int
		recording        bool
		wantErr          string
	}{
		{name: "window without sampled", window: 4096, wantErr: "-window requires -sampled"},
		{name: "interval without sampled", interval: 65536, wantErr: "-interval requires -sampled"},
		{name: "warmup without sampled", warmup: "1024", wantErr: "-warmup requires -sampled"},
		{name: "workers without sampled", workers: 4, wantErr: "-windowworkers requires -sampled"},
		{name: "sampled with record", sampled: true, recording: true, wantErr: "-record is incompatible with -sampled"},
		{name: "negative workers", sampled: true, workers: -1, wantErr: "-windowworkers must be >= 0"},
		{name: "plain run", wantErr: ""},
		{name: "sampled defaults", sampled: true, wantErr: ""},
		{name: "sampled auto warmup", sampled: true, warmup: "auto", wantErr: ""},
		{name: "sampled parallel", sampled: true, workers: 4, wantErr: ""},
		{name: "sampled explicit", sampled: true, window: 2048, interval: 16384, warmup: "1024", workers: 2, wantErr: ""},
	}
	for _, tc := range cases {
		rc := tip.DefaultRunConfig()
		err := configureSampled(&rc, tc.sampled, tc.window, tc.interval, tc.warmup, tc.workers, tc.recording)
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

// TestConfigureSampledDefaults pins that a bare -sampled run gets the shared
// default geometry, and that explicit values pass through.
func TestConfigureSampledDefaults(t *testing.T) {
	rc := tip.DefaultRunConfig()
	if err := configureSampled(&rc, true, 0, 0, "", 0, false); err != nil {
		t.Fatal(err)
	}
	if !rc.Sampled {
		t.Fatal("rc.Sampled not set")
	}
	if rc.WindowCycles != tip.DefaultSampledWindow ||
		rc.WindowInterval != tip.DefaultSampledInterval ||
		rc.WarmupCycles != tip.DefaultSampledWarmup {
		t.Fatalf("defaults not applied: %d/%d/%d", rc.WindowCycles, rc.WindowInterval, rc.WarmupCycles)
	}

	rc = tip.DefaultRunConfig()
	if err := configureSampled(&rc, true, 4096, 4096, "", 0, false); err != nil {
		t.Fatal(err)
	}
	if rc.WindowCycles != 4096 || rc.WindowInterval != 4096 {
		t.Fatalf("explicit geometry not preserved: %d/%d", rc.WindowCycles, rc.WindowInterval)
	}
	if rc.WarmupCycles != 0 {
		t.Fatalf("full-fraction run got a defaulted warmup %d", rc.WarmupCycles)
	}
}

// TestConfigureSampledAutoWarmup pins that -warmup auto reaches the run
// configuration as the heuristic's value.
func TestConfigureSampledAutoWarmup(t *testing.T) {
	rc := tip.DefaultRunConfig()
	if err := configureSampled(&rc, true, 8192, 1<<20, "auto", 0, false); err != nil {
		t.Fatal(err)
	}
	if want := tip.AutoWarmupCycles(8192, 1<<20); rc.WarmupCycles != want {
		t.Fatalf("auto warmup resolved to %d, want %d", rc.WarmupCycles, want)
	}
}

// TestRunMulticoreRejections exercises the -cores mode rejections: raw-sample
// recording, fused streaming, and sampled simulation are all single-core
// paths.
func TestRunMulticoreRejections(t *testing.T) {
	rc := tip.DefaultRunConfig()
	cases := []struct {
		name                          string
		recording, streaming, sampled bool
		wantErr                       string
	}{
		{name: "record", recording: true, wantErr: "-record is incompatible with -cores"},
		{name: "streaming", streaming: true, wantErr: "-streaming is incompatible with -cores"},
		{name: "sampled", sampled: true, wantErr: "-sampled is incompatible with -cores"},
		{name: "unknown bench", wantErr: "unknown benchmark"},
	}
	for _, tc := range cases {
		err := runMulticore("mcf,nosuchbench", 1, 10_000, rc, 5, "", tc.recording, tc.streaming, tc.sampled)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}
