package fleet

import (
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// promFixture is a coordinator with two registered workers and nonzero
// routing counters.
func promFixture() *Coordinator {
	c := NewCoordinator(CoordinatorConfig{})
	now := time.Now()
	c.reg.heartbeat(NodeHealth{Name: "w2", URL: "http://w2"}, now)
	c.reg.heartbeat(NodeHealth{Name: "w1", URL: "http://w1"}, now)
	c.reg.routed("w1", false)
	c.reg.routed("w1", false)
	c.reg.routed("w2", true)
	c.routed, c.steals, c.rejects, c.errors = 3, 1, 2, 4
	return c
}

// TestCoordinatorMetricsPageGolden pins the coordinator's /metrics page
// byte for byte.
func TestCoordinatorMetricsPageGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/coordinator_metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	promFixture().Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Body.String(); got != string(want) {
		t.Fatalf("metrics page changed:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
