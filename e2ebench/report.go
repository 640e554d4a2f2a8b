package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"genclus/internal/trace"
)

// host is the machine record printed with every result.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostRecord() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GOAMD64: "unknown", CPUModel: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// named is one metric under the name the benchmark's README uses, with
// its sample count.
type named struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// report is everything one run measured and checked; print renders it as
// text lines and write stores it as JSON under the work dir.
type report struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Host     host              `json:"host"`
	Metrics  []named           `json:"metrics"`
	Layers   map[string]metric `json:"layers,omitempty"`
	Phases   map[string]*tally `json:"phases"`
	Gates    []gate            `json:"gates"`
	Errors   []string          `json:"errors,omitempty"`
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.Metrics = append(r.Metrics, named{name, v, unit, n})
}

// latencies adds a latency sample's median and tail under prefix. The
// tail is the highest of p99 and p90 that has at least ten samples beyond
// it; with fewer than 100 samples only the median is reported.
func (r *report) latencies(prefix string, l opLog) {
	xs := millis(l.lat)
	r.add(prefix+"_p50_ms", median(xs), "ms", len(xs))
	switch {
	case len(xs) >= 1000:
		r.add(prefix+"_p99_ms", quantile(xs, 0.99), "ms", len(xs))
	case len(xs) >= 100:
		r.add(prefix+"_p90_ms", quantile(xs, 0.90), "ms", len(xs))
	}
}

// measured adds the measured phase's metrics under the names the issue of
// each path uses.
func (r *report) measured(workload string, m *measured) {
	a, p := m.all(), m.plain
	r.add("op_cpu_ms", m.opCPUMillis(workload), "ms", len(a.primary(workload).lat))
	r.add("ref_kernel_ms", m.refMs, "ms", m.refN)
	r.add("op_cpu_rel", m.opCPURel(workload), "x", len(a.primary(workload).lat))
	switch workload {
	case "mutate-mixed":
		r.add("mutations_per_s", a.mutate.rate(m.start), "1/s", len(a.mutate.lat))
		r.latencies("mutation", p.mutate)
		r.add("assign_qps", a.assign.rate(m.start), "1/s", len(a.assign.lat))
		r.latencies("assign", p.assign)
	case "fit-acp":
		r.add("fit_pairs_per_s", a.cold.rate(m.start), "1/s", len(a.cold.lat))
		r.add("fit_s", median(millis(p.cold.lat))/1000, "s", len(p.cold.lat))
		r.add("refit_s", median(millis(p.warm.lat))/1000, "s", len(p.warm.lat))
	case "refit-warm":
		r.add("refits_per_s", a.warm.rate(m.start), "1/s", len(a.warm.lat))
		r.add("refit_s", median(millis(p.warm.lat))/1000, "s", len(p.warm.lat))
	}
}

// print writes one line per metric, the host record, the failure
// accounting and the gates.
func (r *report) print(w io.Writer, res *result) {
	fmt.Fprintf(w, "# e2ebench workload=%s seed=%d seconds=%g trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	h := r.Host
	fmt.Fprintf(w, "# host nproc=%d gomaxprocs=%d goamd64=%s go=%s cpu=%q\n", h.NumCPU, h.GOMAXPROCS, h.GOAMD64, h.GoVersion, h.CPUModel)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "# metric %s=%.6g %s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	names := make([]string, 0, len(r.Layers))
	for k := range r.Layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# layer %s %s=%.6g %s\n", r.Workload, k, r.Layers[k].Value, r.Layers[k].Unit)
	}
	phases := make([]string, 0, len(r.Phases))
	for k := range r.Phases {
		phases = append(phases, k)
	}
	sort.Strings(phases)
	for _, k := range phases {
		t := r.Phases[k]
		fmt.Fprintf(w, "# phase %s attempted=%d succeeded=%d failed=%d\n", k, t.Attempted, t.Succeeded, t.Failed)
	}
	ratio := float64(res.Failed) / float64(res.Attempted)
	fmt.Fprintf(w, "# metric failed_ratio=%.6g ratio n=%d\n", ratio, res.Attempted)
	for _, g := range r.Gates {
		fmt.Fprintf(w, "# gate %s ok=%v %s\n", g.Name, g.OK, g.Detail)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "# error %s\n", e)
	}
}

// write stores the report, and for a traced run the span dump, under
// dir/results.
func (r *report) write(dir string, tr *trace.Recorder) error {
	dir = filepath.Join(dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	traced := 0
	if r.Trace {
		traced = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", r.Workload, r.Seed, traced)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), data, 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return writeSpans(filepath.Join(dir, base+".spans.json"), tr, map[string]any{"workload": r.Workload, "seed": r.Seed, "host": r.Host})
}

// spanDoc is one span of the dump. A client call's trace id is the one it
// sent to the daemon, so the span joins the daemon's trace of the request.
type spanDoc struct {
	TraceID string    `json:"trace_id"`
	ID      string    `json:"id"`
	Parent  string    `json:"parent,omitempty"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
}

// writeSpans dumps every trace the recorder kept, newest first, as one
// JSON document.
func writeSpans(path string, tr *trace.Recorder, meta map[string]any) error {
	var spans []spanDoc
	for _, t := range tr.Recent() {
		for _, sp := range t.Spans {
			d := spanDoc{TraceID: t.TraceID.String(), ID: sp.ID.String(), Name: sp.Name, Start: sp.Start, End: sp.End}
			if !sp.Parent.IsZero() {
				d.Parent = sp.Parent.String()
			}
			spans = append(spans, d)
		}
	}
	data, err := json.Marshal(map[string]any{"meta": meta, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerUnits is the unit of every per-layer metric.
var layerUnits = map[string]string{
	"server.assign.handler_ms":           "ms",
	"server.assign.window_wait_ms":       "ms",
	"server.assign.passes_per_request":   "ratio",
	"server.assign.batched_share":        "ratio",
	"server.assign.occupancy":            "count",
	"server.assign.shed":                 "count",
	"server.mutation.handler_ms":         "ms",
	"server.fit.queue_wait_ms":           "ms",
	"server.fit.run_ms":                  "ms",
	"server.fit.persist_ms":              "ms",
	"server.supervisor.refits_triggered": "count",
	"server.supervisor.refits_succeeded": "count",
	"server.gc_cycles":                   "count",
	"server.gc_pause_ms":                 "ms",
	"server.heap_alloc_mb":               "MB",
	"core.init_ms":                       "ms",
	"core.outer_iter_ms":                 "ms",
	"core.em_iterations":                 "count",
	"infer.decode_us":                    "us",
	"infer.pass_us":                      "us",
	"infer.encode_us":                    "us",
	"infer.engine_build_ms":              "ms",
	"deltalog.decode_us":                 "us",
	"deltalog.apply_ms":                  "ms",
	"deltalog.append_ms":                 "ms",
	"hin.check_us":                       "us",
	"hin.prepare_csr_ms":                 "ms",
	"hin.build_ms":                       "ms",
	"snapshot.encode_ms":                 "ms",
	"snapshot.bytes":                     "B",
	"store.put_ms":                       "ms",
	"bench.trace_overhead_pct":           "%",
}

// serverLayers derives the server-side per-layer metrics: deltas of
// /metrics over the whole life of the measured daemon (set-up fit,
// measured phase and gate probes), the fit stages of every fit's job
// trace, and the tracing overhead — the headline median of the traced
// calls against that of the untraced ones.
func (s *session) serverLayers(ctx context.Context, workload string, m *measured) (map[string]float64, error) {
	after, err := s.d.scrapeMetrics(ctx)
	if err != nil {
		return nil, err
	}
	d := func(key string) float64 { return after[key] - s.before[key] }
	per := func(num, den string) float64 { return d(num) / d(den) }
	route := func(r string) float64 {
		return 1000 * per(`genclus_http_request_duration_seconds_sum{route="`+r+`"}`,
			`genclus_http_request_duration_seconds_count{route="`+r+`"}`)
	}
	out := map[string]float64{
		"server.assign.handler_ms":           route("POST /v1/models/{id}/assign"),
		"server.assign.passes_per_request":   per("genclus_assign_engine_passes_total", "genclus_assign_requests_total"),
		"server.assign.batched_share":        per("genclus_assign_batched_requests_total", "genclus_assign_requests_total"),
		"server.assign.occupancy":            per("genclus_assign_pass_occupancy_sum", "genclus_assign_pass_occupancy_count"),
		"server.mutation.handler_ms":         route("POST /v1/networks/{id}/edges"),
		"server.fit.queue_wait_ms":           1000 * per("genclus_fit_queue_wait_seconds_sum", "genclus_fit_queue_wait_seconds_count"),
		"server.fit.run_ms":                  1000 * per("genclus_fit_run_seconds_sum", "genclus_fit_run_seconds_count"),
		"server.supervisor.refits_triggered": d("genclus_supervisor_refits_triggered_total"),
		"server.supervisor.refits_succeeded": d("genclus_supervisor_refits_succeeded_total"),
		"server.gc_cycles":                   d("genclus_gc_cycles_total"),
		"server.gc_pause_ms":                 1000 * d("genclus_gc_pause_total_seconds"),
		"server.heap_alloc_mb":               after["genclus_heap_alloc_bytes"] / (1 << 20),
	}
	passMS := 1000 * per("genclus_assign_pass_seconds_sum", "genclus_assign_pass_seconds_count")
	out["server.assign.window_wait_ms"] = out["server.assign.handler_ms"] - passMS
	var shed float64
	for _, reason := range []string{"in_flight", "queue_full", "rate_limit"} {
		shed += d(`genclus_assign_shed_total{reason="` + reason + `"}`)
	}
	out["server.assign.shed"] = shed

	// The daemon keeps its last 256 traces and every request adds one, so
	// read only the newest jobs' traces.
	jobs := m.jobs
	if len(jobs) > maxJobTraces {
		jobs = jobs[len(jobs)-maxJobTraces:]
	}
	traces := [][]byte{s.fitTrace}
	for _, id := range jobs {
		body, err := s.d.get(ctx, "/v1/jobs/"+id+"/trace")
		if err != nil {
			return nil, err
		}
		traces = append(traces, body)
	}
	stages, err := fitStages(traces)
	if err != nil {
		return nil, err
	}
	for k, v := range stages {
		out[k] = v
	}

	base := median(millis(m.plain.primary(workload).lat))
	out["bench.trace_overhead_pct"] = 100 * (median(millis(m.traced.primary(workload).lat))/base - 1)
	return out, nil
}

const maxJobTraces = 32

// fitStages reads fit job traces (GET /v1/jobs/{id}/trace) and returns the
// median over jobs of: initialization time, mean outer-iteration time,
// persist time and EM iterations.
func fitStages(traces [][]byte) (map[string]float64, error) {
	var initMS, outerMS, persistMS, emIters []float64
	for _, body := range traces {
		var doc struct {
			Spans []struct {
				Name     string         `json:"name"`
				Duration float64        `json:"duration_seconds"`
				Attrs    map[string]any `json:"attrs"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, fmt.Errorf("decode job trace: %w", err)
		}
		var outer []float64
		var em float64
		for _, sp := range doc.Spans {
			ms := 1000 * sp.Duration
			switch sp.Name {
			case "fit.init":
				initMS = append(initMS, ms)
			case "fit.outer_iteration":
				outer = append(outer, ms)
			case "job.persist":
				persistMS = append(persistMS, ms)
			}
			// The attribute is the fit's cumulative EM count at that stage.
			if n, ok := sp.Attrs["em_iterations"].(float64); ok && strings.HasPrefix(sp.Name, "fit.") {
				em = max(em, n)
			}
		}
		if len(outer) > 0 {
			outerMS = append(outerMS, mean(outer))
		}
		emIters = append(emIters, em)
	}
	return map[string]float64{
		"core.init_ms":          median(initMS),
		"core.outer_iter_ms":    median(outerMS),
		"server.fit.persist_ms": median(persistMS),
		"core.em_iterations":    median(emIters),
	}, nil
}
