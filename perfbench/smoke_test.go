package main

import "testing"

// TestSmoke runs every workload once, untraced and traced, at a tiny scale.
// It checks that each reports every metric BENCHMARK.json declares, with its
// unit, that nothing failed, and that every declared per-layer metric is
// measured by some workload.
func TestSmoke(t *testing.T) {
	decl, err := loadDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	layerSeen := map[string]bool{}
	for _, wl := range []string{"suite", "sampled", "serve"} {
		for _, traced := range []bool{false, true} {
			defs := decl.EndToEnd
			if traced {
				defs = decl.PerLayer
			}
			res, err := execute(wl, 1, 0.01, traced, true, defs, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl, traced, d.Name, m, d.Unit)
				}
				if traced && res.measured[d.Name] {
					layerSeen[d.Name] = true
				}
			}
			if !traced && res.Metrics["ok_pct"].Value != 100 {
				t.Errorf("%s: ok_pct = %v, want 100", wl, res.Metrics["ok_pct"].Value)
			}
			if traced && res.Metrics["fail_pct"].Value != 0 {
				t.Errorf("%s: fail_pct = %v, want 0", wl, res.Metrics["fail_pct"].Value)
			}
		}
	}
	for _, d := range decl.PerLayer {
		if !layerSeen[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
		}
	}
}
