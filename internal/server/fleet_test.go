package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/cpu"
	"github.com/tipprof/tip/internal/fleet"
)

// fetchPprof downloads a job's TIP pprof payload.
func fetchPprof(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/pprof?profiler=TIP")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof: status %d (%v)", resp.StatusCode, err)
	}
	return data
}

// TestStoreServesWarmAcrossNodes is the fleet's core serving claim: a key
// captured (simulated) on node A is served warm on node B straight from the
// shared store — no second simulation anywhere — and once both nodes are
// warm, their pprof payloads for the key are bit-identical.
func TestStoreServesWarmAcrossNodes(t *testing.T) {
	storeDir := t.TempDir()
	stA, err := fleet.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := fleet.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	sA, tsA := newTestServer(t, Config{Workers: 1, Store: stA})
	sB, tsB := newTestServer(t, Config{Workers: 1, Store: stB})

	runs0 := cpu.RunsStarted()

	// Cold on the whole fleet: node A simulates and publishes.
	vA, code := submit(t, tsA, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit to A: status %d", code)
	}
	doneA := waitTerminal(t, tsA, vA.ID)
	if doneA.State != stateDone || doneA.CaptureSource != "simulated" {
		t.Fatalf("A: state=%s source=%q (%s), want done/simulated",
			doneA.State, doneA.CaptureSource, doneA.Error)
	}
	if _, _, puts := stA.Counters(); puts != 1 {
		t.Fatalf("A published %d captures, want 1", puts)
	}

	// Same key on node B: warm from the store, no simulation.
	vB, code := submit(t, tsB, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit to B: status %d", code)
	}
	doneB := waitTerminal(t, tsB, vB.ID)
	if doneB.State != stateDone || doneB.CaptureSource != "store" {
		t.Fatalf("B: state=%s source=%q (%s), want done/store",
			doneB.State, doneB.CaptureSource, doneB.Error)
	}
	if doneB.CacheHit {
		t.Fatal("store pull misreported as a local cache hit")
	}
	if got := cpu.RunsStarted() - runs0; got != 1 {
		t.Fatalf("fleet ran %d simulations for one key, want exactly 1", got)
	}
	if sB.met.simulationCount() != 0 || sA.met.simulationCount() != 1 {
		t.Fatalf("simulation counters A=%d B=%d, want 1/0",
			sA.met.simulationCount(), sB.met.simulationCount())
	}

	// Node A's cold answer and B's store replay are bit-identical.
	pA := fetchPprof(t, tsA, vA.ID)
	pB := fetchPprof(t, tsB, vB.ID)
	if !bytes.Equal(pA, pB) {
		t.Fatalf("pprof differs across nodes: %d vs %d bytes", len(pA), len(pB))
	}

	// Both nodes expose the store traffic in /metrics.
	resp, err := http.Get(tsB.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"tipd_store_hits_total 1\n", "tipd_simulations_total 0\n"} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("B /metrics missing %q:\n%s", want, prom)
		}
	}
}

// TestColdJobMatchesWarm pins that a profile is a function of the request,
// not of cache state: a cold job (simulated on node A), a warm rerun on A
// (local cache), and node B's store replay of the same spec return the same
// pprof bytes, sample interval and errors. The spec's run outlasts the
// streaming pilot window, so a cold job calibrated from a pilot estimate
// instead of the capture's exact cycle count would pick another interval.
func TestColdJobMatchesWarm(t *testing.T) {
	storeDir := t.TempDir()
	stA, err := fleet.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := fleet.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	_, tsA := newTestServer(t, Config{Workers: 1, Store: stA})
	_, tsB := newTestServer(t, Config{Workers: 1, Store: stB})

	spec := testSpec()
	spec.Bench, spec.Scale = "mcf", 50_000
	run := func(ts *httptest.Server, wantSource string) (JobView, []byte) {
		t.Helper()
		v, code := submit(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		v = waitTerminal(t, ts, v.ID)
		if v.State != stateDone || v.CaptureSource != wantSource || v.Result == nil {
			t.Fatalf("job: state=%s source=%q (%s), want done/%s", v.State, v.CaptureSource, v.Error, wantSource)
		}
		return v, fetchPprof(t, ts, v.ID)
	}
	cold, pCold := run(tsA, sourceSimulated)
	if cold.Result.Cycles <= tip.DefaultPilotCycles {
		t.Fatalf("spec runs %d cycles, inside the %d-cycle pilot window: it cannot tell pilot from exact calibration",
			cold.Result.Cycles, uint64(tip.DefaultPilotCycles))
	}
	for _, tc := range []struct {
		ts     *httptest.Server
		source string
	}{{tsA, sourceCache}, {tsB, sourceStore}} {
		warm, pWarm := run(tc.ts, tc.source)
		if warm.Result.SampleInterval != cold.Result.SampleInterval {
			t.Errorf("%s: sample interval %d, cold job %d", tc.source, warm.Result.SampleInterval, cold.Result.SampleInterval)
		}
		if !reflect.DeepEqual(warm.Result.Errors, cold.Result.Errors) {
			t.Errorf("%s: errors %v, cold job %v", tc.source, warm.Result.Errors, cold.Result.Errors)
		}
		if !bytes.Equal(pWarm, pCold) {
			t.Errorf("%s: pprof differs from the cold job's: %d vs %d bytes", tc.source, len(pWarm), len(pCold))
		}
	}
}

// TestSaturation429Jitter pins the retry-storm fix: the saturated response
// carries a jittered retry_after_ms in [500, 1500) and a Retry-After header
// that rounds it up to whole seconds, plus the queue state a coordinator
// uses as its steal signal.
func TestSaturation429Jitter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release, started := blockingExecute(s)
	defer release()

	if _, code := submit(t, ts, testSpec()); code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started")
	}
	if _, code := submit(t, ts, testSpec()); code != http.StatusAccepted {
		t.Fatalf("second submit: status %d", code)
	}

	body, _ := json.Marshal(testSpec())
	for i := 0; i < 8; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rej struct {
			RetryAfterMS int `json:"retry_after_ms"`
			QueueDepth   int `json:"queue_depth"`
			QueueCap     int `json:"queue_cap"`
		}
		err = json.NewDecoder(resp.Body).Decode(&rej)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || err != nil {
			t.Fatalf("saturated submit %d: status %d (%v)", i, resp.StatusCode, err)
		}
		if rej.RetryAfterMS < 500 || rej.RetryAfterMS >= 1500 {
			t.Fatalf("retry_after_ms = %d, want in [500, 1500)", rej.RetryAfterMS)
		}
		if rej.QueueCap != 1 || rej.QueueDepth != 1 {
			t.Fatalf("queue state = %d/%d, want 1/1", rej.QueueDepth, rej.QueueCap)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra != (rej.RetryAfterMS+999)/1000 {
			t.Fatalf("Retry-After %q does not round up retry_after_ms %d",
				resp.Header.Get("Retry-After"), rej.RetryAfterMS)
		}
	}
}

// warnCollector is a threadsafe warning sink for Config.Logf or
// fleet.Store.SetWarnf.
type warnCollector struct {
	mu   sync.Mutex
	msgs []string
}

func (wc *warnCollector) logf(format string, args ...any) {
	wc.mu.Lock()
	wc.msgs = append(wc.msgs, fmt.Sprintf(format, args...))
	wc.mu.Unlock()
}

func (wc *warnCollector) contains(sub string) bool {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	for _, m := range wc.msgs {
		if strings.Contains(m, sub) {
			return true
		}
	}
	return false
}

// TestMulticoreStoreRestartRoundTrip carries a multicore (TIPTRC3
// core-tagged) capture across restarts through the store and checks (a) a
// restarted daemon serves the core set from the store with per-core stats
// intact and identical profiles, and (b) a truncated payload whose sidecar
// survived reads as a miss: the job re-simulates, the entry is rewritten
// whole, and the next restart serves it from the store again.
func TestMulticoreStoreRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{
		Cores: []CoreJobSpec{
			{Bench: "mcf", Scale: testScale},
			{Bench: "x264", Scale: testScale},
		},
		Profilers:     []string{"TIP"},
		TargetSamples: 256,
	}
	// runOn starts a fresh daemon on the store, runs spec to completion,
	// and returns the finished view, its core-0 TIP profile, and how many
	// simulations the daemon ran. (cpu.RunsStarted cannot tell: the
	// lockstep multicore system steps its cores without Core.Run.)
	runOn := func(warn func(string, ...any)) (JobView, []byte, uint64) {
		t.Helper()
		st, err := fleet.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if warn != nil {
			st.SetWarnf(warn)
		}
		s, ts := newTestServer(t, Config{Workers: 1, Store: st})
		v, code := submit(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		done := waitTerminal(t, ts, v.ID)
		if done.State != stateDone || done.Result == nil || len(done.Result.Cores) != 2 {
			t.Fatalf("multicore job: state=%s result=%+v (%s)", done.State, done.Result, done.Error)
		}
		prof := fetchPprof(t, ts, v.ID)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		return done, prof, s.Health().Simulations
	}

	cold, coldProf, _ := runOn(nil)
	if cold.CaptureSource != sourceSimulated {
		t.Fatalf("first daemon: source=%q, want simulated", cold.CaptureSource)
	}
	// The sidecar carries one stats entry per core.
	trcs, err := filepath.Glob(filepath.Join(dir, "cores-*.trc"))
	if err != nil || len(trcs) != 1 {
		t.Fatalf("multicore store payloads = %v (%v), want exactly 1", trcs, err)
	}
	raw, err := os.ReadFile(strings.TrimSuffix(trcs[0], ".trc") + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Stats []cpu.Stats `json:"core_stats"`
	}
	if err := json.Unmarshal(raw, &meta); err != nil || len(meta.Stats) != 2 {
		t.Fatalf("sidecar core_stats=%d (%v), want a 2-core entry", len(meta.Stats), err)
	}
	payload, err := os.ReadFile(trcs[0])
	if err != nil {
		t.Fatal(err)
	}

	// Restart: the same core set is served from the store, no simulation.
	warm, warmProf, sims := runOn(nil)
	if warm.CaptureSource != sourceStore || sims != 0 {
		t.Fatalf("restarted daemon: source=%q with %d simulations, want store with 0",
			warm.CaptureSource, sims)
	}
	if !bytes.Equal(warmProf, coldProf) {
		t.Fatal("restarted daemon's profile differs from the cold run's")
	}

	// Truncate the payload and keep its sidecar: the entry fails
	// verification, the job re-simulates, and the put heals the entry.
	if err := os.WriteFile(trcs[0], payload[:len(payload)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	wc := &warnCollector{}
	healed, healedProf, sims := runOn(wc.logf)
	if healed.CaptureSource != sourceSimulated || sims == 0 {
		t.Fatalf("truncated entry: source=%q with %d simulations, want a fresh simulation",
			healed.CaptureSource, sims)
	}
	if !wc.contains("payload hash") {
		t.Fatalf("no integrity warning logged: %v", wc.msgs)
	}
	if !bytes.Equal(healedProf, coldProf) {
		t.Fatal("re-simulated profile differs from the cold run's")
	}
	if got, err := os.ReadFile(trcs[0]); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("store entry not rewritten whole (%d of %d bytes, %v)", len(got), len(payload), err)
	}
	again, _, sims := runOn(nil)
	if again.CaptureSource != sourceStore || sims != 0 {
		t.Fatalf("after healing: source=%q with %d simulations, want store with 0",
			again.CaptureSource, sims)
	}
}

// TestShutdownTimeoutAbortsInFlight pins the drain bound: a wedged job
// cannot hold Shutdown past its context deadline — the job's context is
// cancelled and Shutdown returns the deadline error promptly.
func TestShutdownTimeoutAbortsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	// The job ignores release and only exits on ctx cancellation — a stand-
	// in for a wedged simulation that only the drain bound can stop.
	started := make(chan string, 1)
	s.execute = func(ctx context.Context, jb *job) (*jobOutcome, error) {
		started <- jb.id
		<-ctx.Done()
		return nil, ctx.Err()
	}

	v, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	err := s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown returned %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("bounded drain took %s", elapsed)
	}
	if got, _ := getJob(t, ts, v.ID); got.State != stateCanceled {
		t.Fatalf("aborted job state = %s, want canceled", got.State)
	}
}

// TestHealthzFleetSignal checks /healthz carries the fields the coordinator
// and humans share: queue state, cache occupancy, drain flag, and the
// store counters when a store is configured.
func TestHealthzFleetSignal(t *testing.T) {
	st, err := fleet.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 3, Store: st})

	v, code := submit(t, ts, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitTerminal(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Draining || h.Workers != 2 || h.QueueCap != 3 {
		t.Fatalf("healthz basics = %+v", h)
	}
	if h.CacheEntries != 1 || h.CacheBytes == 0 {
		t.Fatalf("healthz cache occupancy = %d entries / %d bytes, want 1 entry", h.CacheEntries, h.CacheBytes)
	}
	if h.Simulations != 1 || !h.StoreEnabled || h.StorePuts != 1 {
		t.Fatalf("healthz fleet counters = %+v", h)
	}
	if h.CoreHash == "" {
		t.Fatal("healthz missing core_hash")
	}

	// Drain state shows up in the same signal.
	s.StartDrain()
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var h2 Health
	if err := json.NewDecoder(resp2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || !h2.Draining {
		t.Fatalf("draining healthz: status %d, %+v (old probes need the plain 200)", resp2.StatusCode, h2)
	}
}
