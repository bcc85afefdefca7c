package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Parent is the index of the enclosing span (-1 for a root); Run
// ties the spans of one benchmark run together.
type span struct {
	Name     string  `json:"name"`
	Run      string  `json:"run"`
	Parent   int     `json:"parent"`
	StartS   float64 `json:"start_s"`
	EndS     float64 `json:"end_s"`
	StartCPU float64 `json:"start_cpu_s"`
	EndCPU   float64 `json:"end_cpu_s"`
	// Concurrent spans overlap spans of other goroutines, so their
	// process-CPU readings say nothing about their own cost; they carry
	// wall time and take no part in self-time accounting.
	Concurrent bool `json:"concurrent,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one pointer test per call site.
type tracer struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	s := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Run: t.run, Parent: parent,
		StartS: s.wall.Sub(t.t0).Seconds(), StartCPU: s.cpu,
	})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	e := now()
	t.mu.Lock()
	t.spans[i].EndS = e.wall.Sub(t.t0).Seconds()
	t.spans[i].EndCPU = e.cpu
	t.mu.Unlock()
}

// concurrent adds a closed wall-time span measured on another goroutine.
func (t *tracer) concurrent(name string, s stamp, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := s.wall.Sub(t.t0).Seconds()
	t.spans = append(t.spans, span{
		Name: name, Run: t.run, Parent: -1, StartS: start, EndS: start + d.Seconds(), Concurrent: true,
	})
}

// selfCPU returns each span name's total self CPU time: a span's CPU minus
// the CPU of its direct children. It is only meaningful for spans opened on
// one goroutine, whose children nest strictly inside them.
func (t *tracer) selfCPU() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		if s.Concurrent {
			continue
		}
		self[i] += s.EndCPU - s.StartCPU
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndCPU - s.StartCPU
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if !s.Concurrent {
			out[s.Name] += self[i]
		}
	}
	return out
}

// spanCost measures what recording one span costs, by opening and closing n
// spans on a scratch tracer.
func spanCost(n int) cost {
	scratch := newTracer("cost")
	s := now()
	for i := 0; i < n; i++ {
		scratch.end(scratch.begin("x", -1))
	}
	c := since(s)
	return cost{wall: c.wall / float64(n), cpu: c.cpu / float64(n)}
}
