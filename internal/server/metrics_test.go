package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"genclus/internal/infer"
	"genclus/internal/metrics"
)

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d: %s", code, body)
	}
	return string(body)
}

func fetchHealth(t *testing.T, ts *httptest.Server) healthResponse {
	t.Helper()
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	var h healthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// parseScrape maps every series of a /metrics scrape ("name{labels}") to
// its value.
func parseScrape(t *testing.T, out string) map[string]float64 {
	t.Helper()
	vals := map[string]float64{}
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable series line %q", line)
		}
		vals[line[:i]] = v
	}
	return vals
}

// healthzSeries pairs a numeric /healthz field with the /metrics series it
// is read from; a field that totals a labelled family lists every series.
type healthzSeries struct {
	field  string
	value  float64
	series []string
}

// healthzCounters lists every numeric /healthz counter that has a /metrics
// series, with its value in h.
func healthzCounters(h healthResponse) []healthzSeries {
	a, m := h.Assign, h.Mutation
	rows := []healthzSeries{
		{"networks", float64(h.Networks), []string{"genclus_networks"}},
		{"models", float64(h.Models), []string{"genclus_models"}},
		{"persist_failures", float64(h.PersistFailures), []string{"genclus_persist_failures_total"}},
		{"assign.requests", float64(a.Requests), []string{"genclus_assign_requests_total"}},
		{"assign.objects", float64(a.Objects), []string{"genclus_assign_objects_total"}},
		{"assign.batched_requests", float64(a.BatchedRequests), []string{"genclus_assign_batched_requests_total"}},
		{"assign.engine_passes", float64(a.EnginePasses), []string{"genclus_assign_engine_passes_total"}},
		{"assign.engine_cache_hits", float64(a.EngineCacheHits), []string{"genclus_assign_engine_cache_hits_total"}},
		{"assign.engine_cache_misses", float64(a.EngineCacheMisses), []string{"genclus_assign_engine_cache_misses_total"}},
		{"assign.shed_requests", float64(a.ShedRequests), []string{
			`genclus_assign_shed_total{reason="queue_full"}`,
			`genclus_assign_shed_total{reason="in_flight"}`,
			`genclus_assign_shed_total{reason="rate_limit"}`,
		}},
		{"mutation.mutations", float64(m.Mutations), []string{"genclus_network_mutations_total"}},
		{"mutation.delta_log_depth", float64(m.DeltaLogDepth), []string{"genclus_deltalog_depth"}},
		{"mutation.supervisors", float64(m.Supervisors), []string{"genclus_supervisors"}},
		{"mutation.drift_score", m.DriftScore, []string{"genclus_supervisor_drift_score"}},
		{"mutation.refits_triggered", float64(m.RefitsTriggered), []string{"genclus_supervisor_refits_triggered_total"}},
		{"mutation.refits_succeeded", float64(m.RefitsSucceeded), []string{"genclus_supervisor_refits_succeeded_total"}},
		{"mutation.refits_failed", float64(m.RefitsFailed), []string{"genclus_supervisor_refits_failed_total"}},
	}
	for _, st := range []jobState{jobQueued, jobRunning, jobDone, jobFailed, jobCancelled} {
		rows = append(rows, healthzSeries{"jobs." + string(st), float64(h.Jobs[st]),
			[]string{`genclus_jobs{state="` + string(st) + `"}`}})
	}
	return rows
}

// assertHealthzMatchesScrape checks that every /healthz counter equals the
// (summed) value of its /metrics series, and that each series is present.
func assertHealthzMatchesScrape(t *testing.T, h healthResponse, scrape map[string]float64) {
	t.Helper()
	for _, row := range healthzCounters(h) {
		sum := 0.0
		for _, name := range row.series {
			v, ok := scrape[name]
			if !ok {
				t.Errorf("healthz %s: series %s absent from /metrics", row.field, name)
			}
			sum += v
		}
		if sum != row.value {
			t.Errorf("healthz %s = %v, /metrics %v = %v", row.field, row.value, row.series, sum)
		}
	}
}

// TestMetricsEndpoint drives a fit, an assign, a shed assign and a
// mutation, then checks that GET /metrics serves the Prometheus text
// format with the fit, assign, cache, persistence, and HTTP families
// populated, and that every numeric /healthz counter reads the same value
// as its /metrics series — on a fresh server (all present at 0) and after
// the traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{
		Workers:            1,
		AssignRPS:          0.01, // one admitted assign, the next one shed
		AssignBurst:        1,
		SupervisorDisabled: true, // no background refit moves a counter between reads
	})

	fresh := fetchHealth(t, ts)
	for _, row := range healthzCounters(fresh) {
		if row.value != 0 {
			t.Errorf("fresh server: healthz %s = %v, want 0", row.field, row.value)
		}
	}
	assertHealthzMatchesScrape(t, fresh, parseScrape(t, scrapeMetrics(t, ts)))

	jobID, status := finishJob(t, ts, 1)
	modelID, res := status.ModelID, fetchResult(t, ts, jobID)

	obj := res.Objects[0]
	req := infer.RequestDoc{Objects: []infer.ObjectDoc{{ID: "q0", Links: []infer.LinkDoc{{Relation: "cites", To: obj.ID, Weight: 1}}}}}
	if code, body := postAssign(t, ts, modelID, req); code != http.StatusOK {
		t.Fatalf("assign: %d: %s", code, body)
	}

	hr, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("content type %q, want %q", ct, metrics.ContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(hr.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE genclus_fit_jobs_total counter",
		`genclus_fit_jobs_total{state="done"} 1`,
		"genclus_fit_em_iterations_count 1",
		"genclus_fit_queue_wait_seconds_count 1",
		"genclus_fit_run_seconds_count 1",
		"genclus_assign_requests_total 1",
		"genclus_assign_objects_total 1",
		"genclus_assign_engine_passes_total 1",
		"genclus_assign_engine_cache_misses_total 1",
		"genclus_assign_pass_seconds_count 1",
		"genclus_assign_pass_occupancy_count 1",
		"genclus_assign_queue_depth 0",
		"genclus_assign_in_flight 0",
		"genclus_persist_failures_total 0",
		"genclus_models 1",
		`genclus_jobs{state="done"} 1`,
		"# TYPE genclus_http_request_duration_seconds histogram",
		`route="POST /v1/models/{id}/assign"`,
		`genclus_http_requests_total{route="POST /v1/jobs",code="202"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", out)
	}

	if code, body := postAssign(t, ts, modelID, req); code != http.StatusTooManyRequests {
		t.Fatalf("second assign: %d, want 429 from the rate limit: %s", code, body)
	}
	if code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/"+status.NetworkID+"/edges",
		`{"add":[{"from":"doc0000","to":"doc0001","rel":"cites","w":1}]}`); code != http.StatusOK {
		t.Fatalf("mutation: %d", code)
	}
	h := fetchHealth(t, ts)
	if h.Assign.ShedRequests != 1 || h.Mutation.Mutations != 1 || h.Jobs[jobDone] != 1 {
		t.Fatalf("healthz did not count the traffic: %+v", h)
	}
	assertHealthzMatchesScrape(t, h, parseScrape(t, scrapeMetrics(t, ts)))
}

// blockedPassServer builds a server whose engine passes block until the
// returned release func is called; entered receives one token per pass
// start. The hook is installed before the listener starts accepting, so
// its write is ordered before any handler goroutine reads it.
func blockedPassServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}, func()) {
	t.Helper()
	entered := make(chan struct{}, 64)
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.assignPassHook = func() {
		entered <- struct{}{}
		<-block
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	// Registered last so it runs first: a test that fails while a pass is
	// held must not leave ts.Close waiting on the blocked request.
	t.Cleanup(release)
	return s, ts, entered, release
}

// singleLinkAssign posts a one-object assign request and returns status +
// body.
func singleLinkAssign(t *testing.T, ts *httptest.Server, modelID, targetID, qid string) (int, []byte) {
	t.Helper()
	req := infer.RequestDoc{Objects: []infer.ObjectDoc{{ID: qid, Links: []infer.LinkDoc{{Relation: "cites", To: targetID, Weight: 1}}}}}
	payload, _ := json.Marshal(req)
	hr, err := http.Post(ts.URL+"/v1/models/"+modelID+"/assign", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("assign %s: %v", qid, err)
	}
	defer hr.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(hr.Body); err != nil {
		t.Fatal(err)
	}
	return hr.StatusCode, buf.Bytes()
}

// assertOverloaded checks the typed 429 contract: code "overloaded" in the
// body and a positive Retry-After header.
func assertOverloaded(t *testing.T, code int, body []byte, header http.Header) {
	t.Helper()
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", code, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("429 body not JSON: %s", body)
	}
	if er.Code != codeOverloaded {
		t.Fatalf("429 code %q, want %q (%s)", er.Code, codeOverloaded, body)
	}
	if len(er.RequestID) != 32 {
		t.Fatalf("429 request_id %q, want the 32-hex trace id (%s)", er.RequestID, body)
	}
	if header != nil && header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}

// TestAssignOverloadQueueFull saturates one model's assign queue behind a
// blocked engine pass and checks the full shedding contract: typed 429s
// with Retry-After past the cap, the shed counter visible on /healthz and
// /metrics, full recovery once the pass drains, and no leaked goroutines.
func TestAssignOverloadQueueFull(t *testing.T) {
	const maxQueue = 4
	s, ts, entered, release := blockedPassServer(t, Config{
		Workers:           1,
		AssignBatchWindow: -1, // no coalescing window; queueing still happens behind the blocked pass
		MaxAssignBatch:    4,
		MaxAssignQueue:    maxQueue,
	})
	modelID, res := assignFixture(t, ts)
	target := res.Objects[0].ID
	baseline := runtime.NumGoroutine()

	// Leader request enters the engine pass and blocks there.
	leaderDone := make(chan int, 1)
	go func() {
		code, _ := singleLinkAssign(t, ts, modelID, target, "leader")
		leaderDone <- code
	}()
	<-entered

	// Fill the queue to exactly the cap behind the blocked leader.
	var wg sync.WaitGroup
	queuedCodes := make([]int, maxQueue)
	for i := 0; i < maxQueue; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			queuedCodes[i], _ = singleLinkAssign(t, ts, modelID, target, fmt.Sprintf("q%d", i))
		}(i)
	}
	entry, ok := s.store.model(modelID)
	if !ok {
		t.Fatal("model vanished")
	}
	waitFor(t, 10*time.Second, func() bool {
		s.assignCache.mu.Lock()
		d := s.assignCache.entries[entry.digest]
		s.assignCache.mu.Unlock()
		if d == nil {
			return false
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.queued == maxQueue
	})

	// One more query object must be shed, typed.
	req := infer.RequestDoc{Objects: []infer.ObjectDoc{{ID: "shed", Links: []infer.LinkDoc{{Relation: "cites", To: target, Weight: 1}}}}}
	payload, _ := json.Marshal(req)
	hr, err := http.Post(ts.URL+"/v1/models/"+modelID+"/assign", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(hr.Body)
	hr.Body.Close()
	assertOverloaded(t, hr.StatusCode, buf.Bytes(), hr.Header)

	if shed := fetchHealth(t, ts).Assign.ShedRequests; shed != 1 {
		t.Fatalf("healthz shed_requests = %d, want 1", shed)
	}
	if out := scrapeMetrics(t, ts); !strings.Contains(out, `genclus_assign_shed_total{reason="queue_full"} 1`) {
		t.Fatalf("shed counter missing from /metrics:\n%s", out)
	}

	// Drain: everything queued (and the leader) completes, and the model
	// serves fresh traffic again.
	release()
	wg.Wait()
	if code := <-leaderDone; code != http.StatusOK {
		t.Fatalf("leader finished %d, want 200", code)
	}
	for i, code := range queuedCodes {
		if code != http.StatusOK {
			t.Fatalf("queued request %d finished %d, want 200", i, code)
		}
	}
	if code, body := singleLinkAssign(t, ts, modelID, target, "recovered"); code != http.StatusOK {
		t.Fatalf("post-drain assign: %d: %s", code, body)
	}
	if shed := fetchHealth(t, ts).Assign.ShedRequests; shed != 1 {
		t.Fatalf("shed_requests moved to %d after recovery, want still 1", shed)
	}

	// The queue-depth gauge returns to zero and no goroutine outlives its
	// request.
	waitFor(t, 10*time.Second, func() bool {
		return strings.Contains(scrapeMetrics(t, ts), "genclus_assign_queue_depth 0")
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		ts.Client().CloseIdleConnections()
		http.DefaultClient.CloseIdleConnections()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after overload: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAssignOverloadInFlightCap holds one request inside its engine pass
// and checks the global in-flight cap sheds the next one with the in_flight
// reason, recovering after release.
func TestAssignOverloadInFlightCap(t *testing.T) {
	_, ts, entered, release := blockedPassServer(t, Config{
		Workers:           1,
		AssignBatchWindow: -1,
		MaxAssignInFlight: 1,
	})
	modelID, res := assignFixture(t, ts)
	target := res.Objects[0].ID

	firstDone := make(chan int, 1)
	go func() {
		code, _ := singleLinkAssign(t, ts, modelID, target, "held")
		firstDone <- code
	}()
	<-entered

	req := infer.RequestDoc{Objects: []infer.ObjectDoc{{ID: "over", Links: []infer.LinkDoc{{Relation: "cites", To: target, Weight: 1}}}}}
	payload, _ := json.Marshal(req)
	hr, err := http.Post(ts.URL+"/v1/models/"+modelID+"/assign", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(hr.Body)
	hr.Body.Close()
	assertOverloaded(t, hr.StatusCode, buf.Bytes(), hr.Header)
	if out := scrapeMetrics(t, ts); !strings.Contains(out, `genclus_assign_shed_total{reason="in_flight"} 1`) {
		t.Fatal("in_flight shed not counted on /metrics")
	}

	release()
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("held request finished %d, want 200", code)
	}
	if code, _ := singleLinkAssign(t, ts, modelID, target, "after"); code != http.StatusOK {
		t.Fatalf("post-release assign: %d", code)
	}
}

// TestAssignInFlightGaugeUncapped holds one request inside its engine pass
// with the in-flight cap disabled and checks genclus_assign_in_flight still
// counts it: the gauge is the one in-flight count, capped or not.
func TestAssignInFlightGaugeUncapped(t *testing.T) {
	_, ts, entered, release := blockedPassServer(t, Config{
		Workers:           1,
		AssignBatchWindow: -1,
		MaxAssignInFlight: -1,
	})
	modelID, res := assignFixture(t, ts)
	target := res.Objects[0].ID

	heldDone := make(chan int, 1)
	go func() {
		code, _ := singleLinkAssign(t, ts, modelID, target, "held")
		heldDone <- code
	}()
	<-entered
	if out := scrapeMetrics(t, ts); !strings.Contains(out, "genclus_assign_in_flight 1\n") {
		t.Fatalf("held request not counted in flight with the cap disabled:\n%s", out)
	}

	release()
	if code := <-heldDone; code != http.StatusOK {
		t.Fatalf("held request finished %d, want 200", code)
	}
	waitFor(t, 10*time.Second, func() bool {
		return strings.Contains(scrapeMetrics(t, ts), "genclus_assign_in_flight 0\n")
	})
}

// TestAssignRateLimit drives the token bucket on a fake clock: the burst
// is admitted, the next request is shed with rate_limit, and a one-second
// clock advance readmits.
func TestAssignRateLimit(t *testing.T) {
	var mu sync.Mutex
	base := time.Now()
	offset := time.Duration(0)
	cfg := Config{
		Workers:           1,
		AssignBatchWindow: -1,
		AssignRPS:         1,
		AssignBurst:       1,
		now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return base.Add(offset)
		},
	}
	_, ts := testServer(t, cfg)
	modelID, res := assignFixture(t, ts)
	target := res.Objects[0].ID

	if code, body := singleLinkAssign(t, ts, modelID, target, "first"); code != http.StatusOK {
		t.Fatalf("first admitted request: %d: %s", code, body)
	}
	req := infer.RequestDoc{Objects: []infer.ObjectDoc{{ID: "limited", Links: []infer.LinkDoc{{Relation: "cites", To: target, Weight: 1}}}}}
	payload, _ := json.Marshal(req)
	hr, err := http.Post(ts.URL+"/v1/models/"+modelID+"/assign", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(hr.Body)
	hr.Body.Close()
	assertOverloaded(t, hr.StatusCode, buf.Bytes(), hr.Header)
	if out := scrapeMetrics(t, ts); !strings.Contains(out, `genclus_assign_shed_total{reason="rate_limit"} 1`) {
		t.Fatal("rate_limit shed not counted on /metrics")
	}

	mu.Lock()
	offset += time.Second
	mu.Unlock()
	if code, body := singleLinkAssign(t, ts, modelID, target, "refilled"); code != http.StatusOK {
		t.Fatalf("request after refill: %d: %s", code, body)
	}
}

// TestHealthzSnapshotConsistency hammers assign while concurrently polling
// /healthz and asserts every observed snapshot satisfies the monotone
// invariants a consistent read guarantees — independently-loaded atomics
// used to allow batched_requests > requests mid-pass.
func TestHealthzSnapshotConsistency(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, AssignBatchWindow: time.Millisecond})
	modelID, res := assignFixture(t, ts)
	target := res.Objects[0].ID

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are tolerated here (the loop may straddle
				// teardown); the test's subject is the poller below.
				req := infer.RequestDoc{Objects: []infer.ObjectDoc{{ID: fmt.Sprintf("w%dq%d", w, i), Links: []infer.LinkDoc{{Relation: "cites", To: target, Weight: 1}}}}}
				payload, _ := json.Marshal(req)
				hr, err := http.Post(ts.URL+"/v1/models/"+modelID+"/assign", "application/json", bytes.NewReader(payload))
				if err == nil {
					io.Copy(io.Discard, hr.Body)
					hr.Body.Close()
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		a := fetchHealth(t, ts).Assign
		if a.BatchedRequests > a.Requests {
			t.Errorf("torn snapshot: batched_requests %d > requests %d", a.BatchedRequests, a.Requests)
		}
		if a.Requests > a.Objects {
			t.Errorf("torn snapshot: requests %d > objects %d (every request has ≥1 object)", a.Requests, a.Objects)
		}
		if a.EnginePasses > a.Requests {
			t.Errorf("torn snapshot: engine_passes %d > requests %d", a.EnginePasses, a.Requests)
		}
	}
	close(stop)
	wg.Wait()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
