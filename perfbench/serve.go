package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"sync"
	"time"

	tip "github.com/tipprof/tip"
	"github.com/tipprof/tip/internal/fleet"
	"github.com/tipprof/tip/internal/server"
	"github.com/tipprof/tip/internal/workload"
)

// The serve workload's traffic: two closed-loop clients, one per vCPU of the
// reference host, each submitting jobs one at a time to an in-process tipd on
// loopback HTTP. A job is the one cmd/tipload submits and the CI fleet job
// loads: a TIP profile of an x264, mcf or imagick input at scale 200,000
// with 256 target samples. Every round a client asks for one key it has
// never asked for (simulated), then six repeats: two of that key (capture
// cache), two of its previous round's key and two of an older key, which
// the four-entry cache has usually evicted by then (shared capture store).
// tipload's fixed universe of six keys would leave no cold job after the
// first six and no store hit; the seeds here widen it as tipload's -seeds
// does. The seed decides the repeat order and which older keys come back.
const (
	serveClients      = 2
	serveScale        = 200_000
	serveSamples      = 256
	serveCacheEntries = 4
	servePoll         = 2 * time.Millisecond
	// serveJobTimeout abandons a job that has not finished by then, so a
	// hung daemon fails the run instead of stalling it.
	serveJobTimeout = time.Minute
	// serveErrRounds is how many rounds' keys tip_err_pct averages over:
	// rounds every run completes, so the mean covers the same keys on every
	// run whatever the seed.
	serveErrRounds = 3
)

// serveBenches is tipload's default benchmark universe.
var serveBenches = []string{"x264", "mcf", "imagick"}

type serveKey struct {
	bench string
	seed  uint64
}

// keyFor is client c's new key in round r; clients never share keys.
func keyFor(c, r int) serveKey {
	i := serveClients*r + c
	return serveKey{bench: serveBenches[i%len(serveBenches)], seed: uint64(i + 1)}
}

// jobObs is what a client saw of one job.
type jobObs struct {
	key      serveKey
	round    int
	ok       bool
	source   string
	latency  time.Duration // submit → pprof bytes received
	submit   time.Duration
	pprof    time.Duration
	queue    time.Duration // started − created, from the job view
	run      time.Duration // finished − started
	capture  float64
	replay   float64
	insts    uint64
	tipErr   float64
	retries  int
	pprofSum [sha256.Size]byte
}

// tipd is one running daemon with its store and listener.
type tipd struct {
	url   string
	srv   *server.Server
	hs    *http.Server
	dir   string
	warns int
	mu    sync.Mutex
}

func startTipd() (*tipd, error) {
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return nil, err
	}
	d := &tipd{dir: dir}
	st, err := fleet.OpenStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	st.SetWarnf(d.warnf)
	d.srv, err = server.New(server.Config{CacheEntries: serveCacheEntries, Store: st, Logf: d.warnf})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go d.hs.Serve(ln)
	return d, nil
}

// warnf counts the daemon's warnings: a corrupt store entry or a failed
// publish is a wrong output here.
func (d *tipd) warnf(format string, args ...any) {
	d.mu.Lock()
	d.warns++
	d.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: tipd: "+format+"\n", args...)
}

// stop shuts the listener and the daemon down and waits for both.
func (d *tipd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := d.hs.Shutdown(ctx)
	serr := d.srv.Shutdown(ctx)
	os.RemoveAll(d.dir)
	if herr != nil {
		return herr
	}
	return serr
}

func runServe(b *bench) {
	scale := uint64(serveScale)
	if b.tiny {
		scale = 10_000
	}
	cl := &http.Client{Timeout: serveJobTimeout}
	var d *tipd
	warmup := serveKey{bench: serveBenches[0], seed: 1 << 20}
	b.setup(func() {
		var err error
		if d, err = startTipd(); err != nil {
			panic(err)
		}
		// One cold and one warm job outside the measured keys, so the
		// first measured job does not pay for lazy start-up.
		for i := 0; i < 2; i++ {
			if o := doJob(cl, d.url, warmup, scale, nil); !o.ok {
				panic("warm-up job failed")
			}
		}
	}, func() {
		if err := d.stop(); err != nil {
			panic(err)
		}
	})
	defer func() {
		sp := b.tr.begin("server.Shutdown", b.root)
		if err := d.stop(); err != nil {
			b.fail("tipd shutdown: %v", err)
		}
		b.tr.end(sp)
	}()

	loop := b.tr.begin("serve.closed_loop", b.root)
	prof := startProfile(b)
	obs := make([][]jobObs, serveClients)
	var elapsed time.Duration
	b.settle(loop)
	b.heap.enter("serve")
	b.timed(func(deadline func() bool) {
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				obs[c] = clientLoop(b, cl, d.url, c, scale, deadline)
			}(c)
		}
		wg.Wait()
		elapsed = time.Since(start)
	})
	b.heap.enter("")
	rows := prof.stop()
	b.tr.end(loop)

	var all []jobObs
	for _, o := range obs {
		all = append(all, o...)
	}
	checkServe(b, all)
	d.mu.Lock()
	b.failed += d.warns
	d.mu.Unlock()

	var cold, warm []float64
	var insts uint64
	done := 0
	errByKey := map[serveKey]float64{}
	sources := map[string]int{}
	for _, o := range all {
		if !o.ok {
			continue
		}
		done++
		sources[o.source]++
		insts += o.insts
		ms := float64(o.latency) / 1e6
		if o.source == "simulated" {
			cold = append(cold, ms)
		} else {
			warm = append(warm, ms)
			if o.round < serveErrRounds {
				errByKey[o.key] = o.tipErr
			}
		}
	}
	tipErr := 0.0
	for _, e := range errByKey {
		tipErr += e
	}
	b.set("minst_per_cpu_s", float64(insts)/1e6/b.timedCPU)
	b.set("minst_per_s", float64(insts)/1e6/elapsed.Seconds())
	b.set("jobs_per_s", float64(done)/elapsed.Seconds())
	b.set("peak_heap_mb", b.heap.mib("serve"))
	if len(errByKey) > 0 {
		b.set("tip_err_pct", 100*tipErr/float64(len(errByKey)))
	}
	b.setLatency("cold", cold)
	b.setLatency("warm", warm)
	b.diag["capture_sources"] = sources

	if b.tr != nil {
		serveLayers(b, cl, d, all, scale)
		if rows != nil {
			b.profileRows(rows, 1)
		}
	}
}

// clientLoop is one closed-loop client: it runs rounds until the deadline,
// finishing the job in flight and always the whole first round.
func clientLoop(b *bench, cl *http.Client, url string, c int, scale uint64, deadline func() bool) []jobObs {
	rng := rand.New(rand.NewPCG(b.seed, uint64(c)))
	var out []jobObs
	for r := 0; r == 0 || !deadline(); r++ {
		cur := keyFor(c, r)
		prev, old := cur, cur
		if r >= 1 {
			prev = keyFor(c, r-1)
		}
		if r >= 3 {
			old = keyFor(c, rng.IntN(r-2))
		}
		repeats := []serveKey{cur, cur, prev, prev, old, old}
		rng.Shuffle(len(repeats), func(i, j int) { repeats[i], repeats[j] = repeats[j], repeats[i] })
		for _, k := range append([]serveKey{cur}, repeats...) {
			if r > 0 && deadline() {
				return out
			}
			o := doJob(cl, url, k, scale, b.tr)
			o.round = r
			out = append(out, o)
		}
	}
	return out
}

// doJob submits one job, polls it to a terminal state and fetches its pprof
// profile. Spans go to tr (nil records nothing); they are concurrent with
// the other client's, so they carry wall time only.
func doJob(cl *http.Client, url string, k serveKey, scale uint64, tr *tracer) jobObs {
	o := jobObs{key: k}
	// A JobSpec of strings and integers always marshals.
	body, _ := json.Marshal(server.JobSpec{Bench: k.bench, Seed: k.seed, Scale: scale, Profilers: []string{"TIP"}, TargetSamples: serveSamples})
	start := now()
	var v server.JobView
	for {
		resp, err := cl.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return o
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return o
		}
		if resp.StatusCode == http.StatusTooManyRequests && o.retries < 20 {
			// The closed loop keeps at most two jobs in flight, under the
			// queue depth, so this only happens if admission control breaks.
			o.retries++
			var hint struct {
				RetryAfterMS int `json:"retry_after_ms"`
			}
			json.Unmarshal(data, &hint)
			time.Sleep(time.Duration(hint.RetryAfterMS) * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted || json.Unmarshal(data, &v) != nil {
			return o
		}
		break
	}
	o.submit = time.Since(start.wall)
	tr.concurrent("server.POST /v1/jobs", start, o.submit)

	for v.State == "queued" || v.State == "running" {
		if time.Since(start.wall) > serveJobTimeout {
			return o
		}
		time.Sleep(servePoll)
		s := now()
		resp, err := cl.Get(url + "/v1/jobs/" + v.ID)
		if err != nil {
			return o
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return o
		}
		tr.concurrent("server.GET /v1/jobs/{id}", s, time.Since(s.wall))
	}
	if v.State != "done" || v.Result == nil || v.Started == nil || v.Finished == nil {
		return o
	}

	s := now()
	resp, err := cl.Get(url + "/v1/jobs/" + v.ID + "/pprof")
	if err != nil {
		return o
	}
	prof, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(prof) == 0 {
		return o
	}
	o.pprof = time.Since(s.wall)
	o.latency = time.Since(start.wall)
	tr.concurrent("server.GET /v1/jobs/{id}/pprof", s, o.pprof)

	o.ok = true
	o.source = v.CaptureSource
	o.queue = v.Started.Sub(v.Created)
	o.run = v.Finished.Sub(*v.Started)
	if v.Timing != nil {
		o.capture, o.replay = v.Timing.CaptureSeconds, v.Timing.ReplaySeconds
	}
	o.insts = v.Result.Committed
	o.tipErr = v.Result.Errors["TIP"]
	o.pprofSum = sha256.Sum256(prof)
	return o
}

// checkServe counts failed jobs and wrong outputs. Warm results must be
// bit-identical to the first warm result of their key; a cold result is
// calibrated from the streaming pilot window and legitimately differs.
func checkServe(b *bench, all []jobObs) {
	first := map[serveKey]jobObs{}
	for _, o := range all {
		b.attempted++
		switch {
		case !o.ok:
			b.fail("job %s:%d did not complete", o.key.bench, o.key.seed)
			continue
		case o.source == "simulated":
			continue
		case o.source != "cache" && o.source != "store":
			b.fail("job %s:%d: unexpected capture source %q", o.key.bench, o.key.seed, o.source)
			continue
		}
		f, seen := first[o.key]
		if !seen {
			first[o.key] = o
			continue
		}
		if o.pprofSum != f.pprofSum || o.tipErr != f.tipErr || o.insts != f.insts {
			b.fail("job %s:%d: warm result differs from the key's first warm result", o.key.bench, o.key.seed)
		}
	}
}

// serveLayers reports the daemon's phases as its clients and job views saw
// them, its hit ratios from /metrics, and the store's own Get/Put cost.
func serveLayers(b *bench, cl *http.Client, d *tipd, all []jobObs, scale uint64) {
	var submit, queue, pprofMS, capture, replay []float64
	run := map[string][]float64{}
	keys := map[serveKey]bool{}
	sources := map[string]int{}
	retries := 0
	for _, o := range all {
		retries += o.retries
		if !o.ok {
			continue
		}
		keys[o.key] = true
		sources[o.source]++
		submit = append(submit, float64(o.submit)/1e6)
		queue = append(queue, float64(o.queue)/1e6)
		pprofMS = append(pprofMS, float64(o.pprof)/1e6)
		capture = append(capture, o.capture)
		replay = append(replay, o.replay)
		run[o.source] = append(run[o.source], float64(o.run)/1e6)
	}
	done := float64(len(submit))
	b.set("server.submit_ms", median(submit))
	b.set("server.queue_wait_ms", median(queue))
	for _, src := range []string{"cache", "store", "simulated"} {
		b.set("server.run_"+src+"_ms", median(run[src]))
	}
	b.set("server.capture_s", median(capture))
	b.set("server.replay_s", median(replay))
	b.set("server.pprof_ms", median(pprofMS))
	b.set("server.cache_hit_pct", 100*float64(sources["cache"])/done)
	b.set("server.store_hit_pct", 100*float64(sources["store"])/done)
	b.set("server.retries_429", float64(retries))
	sp := b.tr.begin("server.GET /metrics", b.root)
	sims, err := scrapeCounter(cl, d.url, "tipd_simulations_total")
	b.tr.end(sp)
	if err != nil {
		b.fail("metrics: %v", err)
	} else {
		// The set-up's warm-up key was simulated once before the loop.
		b.set("server.simulations_per_key", (sims-1)/float64(len(keys)))
	}

	// Store.Get and Store.Put on one capture of a measured key's size, in
	// a store of their own.
	w, err := workload.LoadScaled(serveBenches[0], 1<<21, scale)
	if err != nil {
		b.fail("store probe: %v", err)
		return
	}
	sp = b.tr.begin("tip.CaptureWorkload", b.root)
	capt, stats, err := tip.CaptureWorkload(w, tip.DefaultCoreConfig())
	b.tr.end(sp)
	if err != nil {
		b.fail("store probe: %v", err)
		return
	}
	defer capt.Close()
	dir, err := os.MkdirTemp("", "perfbench-probe-")
	if err != nil {
		b.fail("store probe: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := fleet.OpenStore(dir)
	if err != nil {
		b.fail("store probe: %v", err)
		return
	}
	const n = 20
	var put, get []float64
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("probe%02d", i)
		s := now()
		sp := b.tr.begin("fleet.Store.Put", b.root)
		err := st.Put(id, capt, []tip.CoreStats{stats})
		b.tr.end(sp)
		put = append(put, since(s).wall*1e3)
		if err != nil {
			b.fail("store probe: %v", err)
			return
		}
		s = now()
		sp = b.tr.begin("fleet.Store.Get", b.root)
		got, _, ok := st.Get(id)
		b.tr.end(sp)
		get = append(get, since(s).wall*1e3)
		if !ok {
			b.fail("store probe: Get(%s) missed", id)
			return
		}
		got.Close()
	}
	b.set("fleet.store_put_ms", median(put))
	b.set("fleet.store_get_ms", median(get))
}

// scrapeCounter reads one counter from the daemon's /metrics page.
func scrapeCounter(cl *http.Client, url, name string) (float64, error) {
	resp, err := cl.Get(url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindSubmatch(data)
	if m == nil {
		return 0, fmt.Errorf("no %s in /metrics", name)
	}
	return strconv.ParseFloat(string(m[1]), 64)
}
