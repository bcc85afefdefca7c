package fleet

import (
	"fmt"
	"io"
)

// Prom writes Prometheus text exposition (format 0.0.4). tipd's /metrics and
// the coordinator's both render through it, so the two pages cannot drift
// apart in framing.
type Prom struct{ W io.Writer }

// Family writes a metric family's # HELP and # TYPE lines; its samples follow
// through Sample.
func (p Prom) Family(name, typ, help string) {
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample line. series is the metric name, with its label
// set when it has one (`name{k="v"}`); integers render in decimal and floats
// in %g, as the text format expects.
func (p Prom) Sample(series string, v any) {
	fmt.Fprintf(p.W, "%s %v\n", series, v)
}

// Metric writes a family holding a single unlabelled sample.
func (p Prom) Metric(name, typ, help string, v any) {
	p.Family(name, typ, help)
	p.Sample(name, v)
}
