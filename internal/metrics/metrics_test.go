package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_requests_total", "Requests served.", "route", "GET /x", "code", "200")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter value %d, want 4", c.Value())
	}
	// Same name+labels returns the same instrument.
	if again := r.Counter("app_requests_total", "ignored", "route", "GET /x", "code", "200"); again != c {
		t.Fatal("lookup did not return the existing counter")
	}
	g := r.Gauge("app_depth", "Queue depth.")
	g.Set(7)
	if v := g.Add(-2); v != 5 {
		t.Fatalf("Gauge.Add returned %d, want the new value 5", v)
	}
	r.GaugeFunc("app_uptime", "Computed.", func() float64 { return 1.5 })

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP app_requests_total Requests served.",
		"# TYPE app_requests_total counter",
		`app_requests_total{route="GET /x",code="200"} 4`,
		"# TYPE app_depth gauge",
		"app_depth 5",
		"app_uptime 1.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("app_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	if h.Count() != 3 {
		t.Fatalf("count %d, want 3", h.Count())
	}
	if got := h.Sum(); got != 5.55 {
		t.Fatalf("sum %v, want 5.55", got)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE app_latency_seconds histogram",
		`app_latency_seconds_bucket{le="0.1"} 1`,
		`app_latency_seconds_bucket{le="1"} 2`,
		`app_latency_seconds_bucket{le="+Inf"} 3`,
		"app_latency_seconds_sum 5.55",
		"app_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramLabeledBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("app_pass_seconds", "Pass.", []float64{1}, "model", "m1")
	h.Observe(0.5)
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `app_pass_seconds_bucket{model="m1",le="1"} 1`) {
		t.Fatalf("labeled bucket line missing:\n%s", b.String())
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_odd_total", "Odd.", "k", "a\"b\\c\nd").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `app_odd_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}

func TestTypeClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_x", "x.")
	defer func() {
		if recover() == nil {
			t.Fatal("registering app_x as a gauge after counter must panic")
		}
	}()
	r.Gauge("app_x", "x.")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_total", "t.")
	h := r.Histogram("app_h", "h.", DurationBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i%10) / 100)
				r.Counter("app_dyn_total", "d.", "w", string(rune('a'+w))).Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			var b strings.Builder
			r.WritePrometheus(&b)
		}
		close(done)
	}()
	wg.Wait()
	<-done
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: counter %d, histogram %d", c.Value(), h.Count())
	}
}
