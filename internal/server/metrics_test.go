package server

import (
	"bytes"
	"os"
	"testing"
)

// promFixture is a fixed daemon state touching every family on the page:
// several terminal states, both phase histograms, and a store.
func promFixture() *metrics {
	m := newMetrics()
	for i := 0; i < 3; i++ {
		m.jobAccepted()
	}
	m.jobRejected()
	m.simulationRan()
	m.jobFinished(stateDone, 0.3, 0.02, 12345, true)
	m.jobFinished(stateDone, 0.0001, 0.015, 12345, false)
	m.jobFinished(stateFailed, 0, 0, 0, false)
	m.jobFinished(stateCanceled, 0, 0, 0, false)
	return m
}

var promFixtureGauges = gauges{
	queueDepth: 2, running: 1, workers: 4, draining: true,
	cacheHits: 3, cacheMisses: 1, cacheEntries: 1, cacheBytes: 4096,
	store: true, storeHits: 1, storeMisses: 2, storePuts: 1,
}

// TestMetricsPageGolden pins tipd's /metrics page byte for byte: dashboards
// and the CI gates grep these exact lines.
func TestMetricsPageGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	promFixture().writeProm(&buf, promFixtureGauges)
	if got := buf.String(); got != string(want) {
		t.Fatalf("metrics page changed:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
