// Package metrics is a dependency-free Prometheus-text-format metrics
// registry sized for genclusd: counters, gauges (stored and computed) and
// fixed-bucket histograms, rendered in the Prometheus exposition format
// (text/plain; version=0.0.4) by WritePrometheus.
//
// The hot-path operations — Counter.Add/Inc, Gauge.Set/Add and
// Histogram.Observe — are lock-free atomics and allocate nothing, so
// instrumenting the EM iteration and assign-pass hot paths cannot move
// their 0 allocs/op steady state. Instrument lookup (Registry.Counter and
// friends) takes a registry lock and may allocate; call it at wiring time
// and hold the returned instrument, not per event.
//
// Series identity is (name, label pairs). Looking up the same name and
// labels returns the same instrument; the same name with a different type
// panics — that is a programming error, not an operational condition.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is usable
// on its own, but series rendered by a Registry must come from
// Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n; negative n panics (counters are
// monotone — use a Gauge for values that go down).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: counter decrease")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as an int64.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative allowed) and returns the new value,
// so a gauge can double as the count an admission check compares.
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Observe is lock-free
// and allocation-free: one atomic add into the bucket, one into the
// count, and a CAS loop folding the value into the float64 sum.
type Histogram struct {
	bounds []float64      // upper bounds, strictly increasing; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// DurationBuckets are the default latency bounds in seconds: 1ms to 60s,
// roughly logarithmic — wide enough for both a 40µs assign pass rounding
// into the first bucket and a multi-minute fit landing in the overflow.
func DurationBuckets() []float64 {
	return []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// CountBuckets are power-of-two-ish bounds for small cardinalities (batch
// occupancy, iteration counts) from 1 to 4096.
func CountBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
}

// instrument is anything a family can render as one or more exposition
// lines for a given series name and label string.
type instrument interface {
	render(w io.Writer, name, labels string)
}

func (c *Counter) render(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.Value())
}

func (g *Gauge) render(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, g.Value())
}

// gaugeFunc evaluates a callback at scrape time.
type gaugeFunc struct {
	fn func() float64
}

func (g gaugeFunc) render(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.fn()))
}

func (h *Histogram) render(w io.Writer, name, labels string) {
	cumulative := int64(0)
	for i, b := range h.bounds {
		cumulative += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, formatFloat(b)), cumulative)
	}
	cumulative += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(labels, "+Inf"), cumulative)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}

// bucketLabels splices le="bound" into an existing (possibly empty) label
// string.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation, +Inf/-Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// family is every series sharing one metric name (and therefore one HELP
// and TYPE line).
type family struct {
	name, help, typ string
	series          map[string]instrument
	order           []string // label strings in first-registration order
}

// Registry holds instrument families and renders them in the Prometheus
// text exposition format. Safe for concurrent registration and scraping.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // family names in registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter for name and the given label pairs
// (alternating key, value), creating it on first use. Help is recorded on
// the first registration of the name.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	inst := r.lookup(name, help, "counter", labelPairs, func() instrument { return &Counter{} })
	return inst.(*Counter)
}

// Gauge returns the stored gauge for name and label pairs, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	inst := r.lookup(name, help, "gauge", labelPairs, func() instrument { return &Gauge{} })
	return inst.(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for values the program already tracks elsewhere (queue depths,
// registry sizes). Registering the same series twice panics.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	fresh := false
	r.lookup(name, help, "gauge", labelPairs, func() instrument { fresh = true; return gaugeFunc{fn} })
	if !fresh {
		panic("metrics: duplicate GaugeFunc registration: " + name)
	}
}

// Histogram returns the histogram for name and label pairs, creating it
// with the given bucket upper bounds (strictly increasing; +Inf implicit)
// on first use.
func (r *Registry) Histogram(name, help string, buckets []float64, labelPairs ...string) *Histogram {
	inst := r.lookup(name, help, "histogram", labelPairs, func() instrument {
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic("metrics: histogram buckets not strictly increasing: " + name)
			}
		}
		bounds := append([]float64(nil), buckets...)
		return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	})
	return inst.(*Histogram)
}

// lookup finds or creates the series (name, labels); a type clash panics.
func (r *Registry) lookup(name, help, typ string, labelPairs []string, make func() instrument) instrument {
	labels := renderLabels(labelPairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]instrument{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	inst, ok := f.series[labels]
	if !ok {
		inst = make()
		f.series[labels] = inst
		f.order = append(f.order, labels)
	}
	return inst
}

// renderLabels turns alternating key/value pairs into a canonical
// {k="v",...} string ("" for none). Values are escaped per the exposition
// format; keys are trusted (they come from code, not input).
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("metrics: odd label pair count")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(pairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the exposition-format label escapes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WritePrometheus renders every registered family in the text exposition
// format: families in registration order, series sorted by label string
// within a family. Values are read live (atomics and gauge callbacks), so
// a scrape observes each series at one instant but the page as a whole is
// not a transaction — standard Prometheus semantics.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	// Copy each family's series under the lock; rendering (which calls
	// gauge callbacks that may take other locks) happens outside it.
	type seriesCopy struct {
		labels string
		inst   instrument
	}
	all := make([][]seriesCopy, len(fams))
	for i, f := range fams {
		labels := append([]string(nil), f.order...)
		sort.Strings(labels)
		for _, ls := range labels {
			all[i] = append(all[i], seriesCopy{ls, f.series[ls]})
		}
	}
	r.mu.Unlock()

	for i, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, sc := range all[i] {
			sc.inst.render(w, f.name, sc.labels)
		}
	}
}

// ContentType is the HTTP Content-Type of the rendered exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"
