package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"genclus/client"
	"genclus/internal/trace"
)

// fitSeed is the fixed seed of every cold fit; the daemon's default
// options are otherwise untouched (K=4 is the generator's area count).
const fitSeed int64 = 1

func coldSpec(netID string) client.JobSpec {
	seed := fitSeed
	return client.JobSpec{NetworkID: netID, K: numClusters, Options: &client.JobOptions{Seed: &seed}}
}

// newClient returns an SDK client for the closed loop: at most two
// connections, no automatic retries, so every refused or failed request
// is counted instead of being hidden behind a retry.
func newClient(url string) *client.Client {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	return client.New(url, client.WithHTTPClient(hc), client.WithRetries(0, 0))
}

// session is the state a workload runs against: the daemon from the last
// set-up, the uploaded network and the set-up fit's model.
type session struct {
	d         *daemon
	c         *client.Client
	netID     string
	baseLinks int
	modelID   string
	fitJob    string // the set-up cold fit's job id
	fit       *client.Result
	refit     *client.Result // the first warm refit's result, once one is done
	setupRSS  float64        // the daemon's VmHWM in MiB when its set-up ended

	before   promSample // /metrics right after the daemon became healthy
	fitTrace []byte     // the set-up fit's job trace

	book  *respBook
	chain *mutChain
	sent  *sentLog
}

// setup starts a daemon, uploads the network, runs one seeded cold fit and
// answers one assign against its model (which builds the engine the
// workload will use). It returns the session and the set-up time: from
// daemon start to the first assign answered.
func setup(ctx context.Context, cfg *config, in *inputs, led *ledger, dir string, n int) (*session, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(ctx, cfg.daemonBin, dir, n)
	led.note("setup", err)
	if err != nil {
		return nil, 0, err
	}
	s := &session{d: d, c: newClient(d.url), book: newRespBook(), sent: &sentLog{}}
	fail := func(err error) (*session, time.Duration, error) {
		led.note("setup", err)
		d.stop()
		return nil, 0, fmt.Errorf("set-up %d: %w", n, err)
	}
	if s.before, err = d.scrapeMetrics(ctx); err != nil {
		return fail(err)
	}
	info, err := s.c.UploadNetworkJSON(ctx, in.doc)
	if err != nil {
		return fail(err)
	}
	led.note("setup", nil)
	s.netID, s.baseLinks = info.ID, info.Links
	job, err := s.c.SubmitJob(ctx, coldSpec(info.ID))
	if err != nil {
		return fail(err)
	}
	led.note("setup", nil)
	if s.fit, err = s.c.WaitForResult(ctx, job.ID); err != nil {
		return fail(err)
	}
	led.note("setup", nil)
	st, err := s.c.JobStatus(ctx, job.ID)
	if err != nil {
		return fail(err)
	}
	led.note("setup", nil)
	s.modelID, s.fitJob = st.ModelID, job.ID
	if err := s.assign(ctx, nil, in, 0, "setup", led); err != nil {
		return fail(err)
	}
	elapsed := time.Since(t0)
	if s.setupRSS, err = d.statusMB("VmHWM"); err != nil {
		return fail(err)
	}
	// Read the fit's trace now: request traces of the workload would push
	// it out of the daemon's bounded trace ring.
	if s.fitTrace, err = d.get(ctx, "/v1/jobs/"+job.ID+"/trace"); err != nil {
		return fail(err)
	}
	s.chain = &mutChain{gen: 0, links: info.Links}
	return s, elapsed, nil
}

// assign sends pool query q as a one-object request and checks the reply.
func (s *session) assign(ctx context.Context, tr *trace.Recorder, in *inputs, q int, phase string, led *ledger) error {
	sp := startSpan(tr, "client.assign")
	resp, err := s.c.AssignObjects(traced(ctx, sp), s.modelID, in.queries[q])
	sp.End(time.Now())
	if err == nil {
		err = s.book.check(q, resp, numClusters)
	}
	s.sent.assign(q)
	led.note(phase, err)
	return err
}

// maxTraces bounds the traced run's recorder: one trace per traced client
// call (a few thousand in a run) plus the replay's.
const maxTraces = 1 << 15

// startSpan opens the root span of one client call on tr. Without a
// recorder it returns nil, whose methods do nothing: the untraced mode.
func startSpan(tr *trace.Recorder, name string) *trace.Span {
	if tr == nil {
		return nil
	}
	return tr.StartTrace(name, trace.SpanContext{}, time.Now())
}

// traced sends the span's context as the call's traceparent, so the
// daemon's trace of the request continues the span's trace.
func traced(ctx context.Context, sp *trace.Span) context.Context {
	if sp == nil {
		return ctx
	}
	return client.WithTraceparent(ctx, sp.Context().Traceparent())
}

// opLog records one kind of operation: the latency of every successful
// call and when the last call completed.
type opLog struct {
	lat  []time.Duration
	last time.Time
}

func (l *opLog) add(t0 time.Time, err error) {
	l.last = time.Now()
	if err == nil {
		l.lat = append(l.lat, l.last.Sub(t0))
	}
}

// loop runs op back to back until deadline: a closed loop, where the next
// call waits for the previous reply. Failed calls are counted by op itself
// and contribute no latency. Given a tracer, every second call is traced
// and logged in traced instead of plain, so both see the same load and the
// same network and their difference is the tracing overhead.
func loop(deadline time.Time, tr *trace.Recorder, op func(*trace.Recorder) error) (plain, traced opLog) {
	for i := 0; time.Now().Before(deadline); i++ {
		l, t := &plain, (*trace.Recorder)(nil)
		if tr != nil && i%2 == 1 {
			l, t = &traced, tr
		}
		t0 := time.Now()
		l.add(t0, op(t))
	}
	return plain, traced
}

// merged combines logs of the same kind of operation.
func merged(logs ...opLog) opLog {
	var out opLog
	for _, l := range logs {
		out.lat = append(out.lat, l.lat...)
		if l.last.After(out.last) {
			out.last = l.last
		}
	}
	return out
}

// rate is completed operations per second from phase start to the last
// completion.
func (l opLog) rate(start time.Time) float64 {
	if len(l.lat) == 0 {
		return 0
	}
	return float64(len(l.lat)) / l.last.Sub(start).Seconds()
}

// ops are the operation logs of one measured phase.
type ops struct {
	assign opLog // assign requests (mutate-mixed reader)
	mutate opLog // mutation acks (mutate-mixed writer)
	cold   opLog // cold fits, submit → result (fit-acp)
	warm   opLog // warm refits, submit → result (fit-acp, refit-warm)
}

// primary returns the log of the workload's headline operation, the one
// op_cpu_ms reports and the wall-clock rate and latency lines lead with.
func (o ops) primary(workload string) opLog {
	switch workload {
	case "fit-acp":
		return o.cold
	case "refit-warm":
		return o.warm
	default:
		return o.mutate
	}
}

// measured is what the measured phase produced. Latencies come from the
// untraced calls; rates count every call.
type measured struct {
	start         time.Time
	plain, traced ops
	jobs          []string
	// The daemon's CPU seconds over the whole phase, and (fit-acp) within
	// the cold fits alone, from each submit to its result.
	cpu, coldCPU float64
	cpuErr       error
	// The reference kernel's CPU time per run, in ms, sampled through the
	// phase: the median and the number of samples.
	refMs float64
	refN  int
}

// daemonCPU reads the daemon's CPU time, keeping the first error in m.
func (m *measured) daemonCPU(d *daemon) float64 {
	v, err := d.cpuSeconds()
	if err != nil && m.cpuErr == nil {
		m.cpuErr = err
	}
	return v
}

// opCPUMillis is the daemon's CPU time per headline operation. On fit-acp
// it is taken over the cold fits alone; elsewhere it is the whole phase's
// CPU time over the headline operations completed, so on mutate-mixed it
// also holds the supervisor refits the mutations trigger and the reader's
// assigns.
func (m *measured) opCPUMillis(workload string) float64 {
	n := len(m.all().primary(workload).lat)
	if n == 0 {
		return 0
	}
	cpu := m.cpu
	if workload == "fit-acp" {
		cpu = m.coldCPU
	}
	return 1000 * cpu / float64(n)
}

// opCPURel is the gated cost of a headline operation: opCPUMillis in units
// of the reference kernel's CPU time sampled in the same phase, so that it
// moves far less than CPU time with the speed the host gives.
func (m *measured) opCPURel(workload string) float64 {
	return m.opCPUMillis(workload) / m.refMs
}

func (m *measured) all() ops {
	p, t := m.plain, m.traced
	return ops{merged(p.assign, t.assign), merged(p.mutate, t.mutate), merged(p.cold, t.cold), merged(p.warm, t.warm)}
}

// runPhase runs the workload's closed loop for dur. A nil tracer traces
// nothing.
func runPhase(ctx context.Context, cfg *config, s *session, in *inputs, tr *trace.Recorder, led *ledger, dur time.Duration) *measured {
	m := &measured{}
	stopRef := make(chan struct{})
	ref := sampleRefKernel(stopRef)
	cpu0 := m.daemonCPU(s.d)
	m.start = time.Now()
	deadline := m.start.Add(dur)
	reader := func() (opLog, opLog) {
		rng := rand.New(rand.NewSource(cfg.seed * 7919))
		return loop(deadline, tr, func(t *trace.Recorder) error {
			return s.assign(ctx, t, in, rng.Intn(len(in.queries)), "measure", led)
		})
	}
	var wg sync.WaitGroup
	switch cfg.workload {
	case "mutate-mixed":
		wg.Add(1)
		go func() { defer wg.Done(); m.plain.assign, m.traced.assign = reader() }()
		m.plain.mutate, m.traced.mutate = loop(deadline, tr, func(t *trace.Recorder) error {
			return s.mutate(ctx, t, in, "measure", led)
		})
		wg.Wait()
	case "fit-acp":
		s.fitLoop(ctx, tr, deadline, led, m)
	case "refit-warm":
		m.plain.warm, m.traced.warm = loop(deadline, tr, func(t *trace.Recorder) error {
			_, err := s.runJob(ctx, t, "client.fit.warm", s.warmSpec(s.fitJob), s.checkRefit, led, m)
			return err
		})
	}
	m.cpu = m.daemonCPU(s.d) - cpu0
	close(stopRef)
	refs := <-ref
	m.refMs, m.refN = median(refs), len(refs)
	return m
}

func (s *session) warmSpec(coldJob string) client.JobSpec {
	return client.JobSpec{NetworkID: s.netID, WarmStartFrom: coldJob}
}

// runJob submits a fit job and waits for its result through the SDK, then
// checks the result. It returns the job id.
func (s *session) runJob(ctx context.Context, tr *trace.Recorder, name string, spec client.JobSpec, check func(*client.Result) error, led *ledger, m *measured) (string, error) {
	sp := startSpan(tr, name)
	cctx := traced(ctx, sp)
	job, err := s.c.SubmitJob(cctx, spec)
	var res *client.Result
	if err == nil {
		res, err = s.c.WaitForResult(cctx, job.ID)
	}
	sp.End(time.Now())
	if err == nil {
		err = check(res)
	}
	led.note("measure", err)
	if err != nil {
		return "", err
	}
	m.jobs = append(m.jobs, job.ID)
	return job.ID, nil
}

// fitLoop alternates a cold fit and a warm-start refit from that cold job,
// each timed from submit to the SDK returning the result. Every cold fit
// must reproduce the set-up fit bit for bit. Given a tracer, every second
// pair is traced.
func (s *session) fitLoop(ctx context.Context, tr *trace.Recorder, deadline time.Time, led *ledger, m *measured) {
	sameAsSetup := func(r *client.Result) error { return sameFit(s.fit, r) }
	for i := 0; time.Now().Before(deadline); i++ {
		o, t := &m.plain, (*trace.Recorder)(nil)
		if tr != nil && i%2 == 1 {
			o, t = &m.traced, tr
		}
		cpu0, t0 := m.daemonCPU(s.d), time.Now()
		coldID, err := s.runJob(ctx, t, "client.fit.cold", coldSpec(s.netID), sameAsSetup, led, m)
		o.cold.add(t0, err)
		if err != nil {
			continue
		}
		m.coldCPU += m.daemonCPU(s.d) - cpu0
		// Finish the pair even past the deadline, so cold and warm fits
		// stay balanced.
		t0 = time.Now()
		_, err = s.runJob(ctx, t, "client.fit.warm", s.warmSpec(coldID), s.checkRefit, led, m)
		o.warm.add(t0, err)
	}
}

// checkRefit validates a warm refit's result: every object clustered into
// K clusters with valid membership rows and EM work done. Every warm
// refit starts from the same cold fit (bit for bit), so each must also
// equal the first one bit for bit.
func (s *session) checkRefit(r *client.Result) error {
	if r.K != numClusters || len(r.Objects) != len(s.fit.Objects) || r.EMIterations < 1 {
		return fmt.Errorf("refit result: k=%d objects=%d em_iterations=%d", r.K, len(r.Objects), r.EMIterations)
	}
	for _, o := range r.Objects {
		if err := checkRow(o.Theta, o.Cluster); err != nil {
			return fmt.Errorf("refit object %s: %w", o.ID, err)
		}
	}
	if s.refit == nil {
		s.refit = r
		return nil
	}
	if err := sameFit(s.refit, r); err != nil {
		return fmt.Errorf("warm refit differs from the first one: %w", err)
	}
	return nil
}

// mutChain tracks the network's generation and link count as acked, so
// every ack can be checked to advance both by exactly one mutation.
type mutChain struct {
	gen, links int
	broken     bool
	acked      int
}

// mutate sends the next authorship mutation and checks its ack.
func (s *session) mutate(ctx context.Context, tr *trace.Recorder, in *inputs, phase string, led *ledger) error {
	edges := in.muts.next()
	sp := startSpan(tr, "client.mutate")
	mr, err := s.c.AddEdges(traced(ctx, sp), s.netID, edges)
	sp.End(time.Now())
	s.sent.mutation(edges)
	ch := s.chain
	switch {
	case err != nil:
		// The daemon may or may not have applied it: stop checking the
		// chain (the failure already makes the run incorrect).
		ch.broken = true
	case ch.broken:
	case mr.Generation != ch.gen+1 || mr.Links != ch.links+len(edges):
		err = fmt.Errorf("mutation ack generation %d links %d, want %d and %d", mr.Generation, mr.Links, ch.gen+1, ch.links+len(edges))
		ch.broken = true
	default:
		ch.gen, ch.links = mr.Generation, mr.Links
		ch.acked++
	}
	led.note(phase, err)
	return err
}

// sentLog keeps, in send order, the first requests of each kind — the
// inputs the traced replay pushes through the layers in-process.
type sentLog struct {
	mu        sync.Mutex
	queries   []int
	mutations [][]client.Edge
}

const (
	maxReplayAssigns   = 256
	maxReplayMutations = 64
)

func (l *sentLog) assign(q int) {
	l.mu.Lock()
	if len(l.queries) < maxReplayAssigns {
		l.queries = append(l.queries, q)
	}
	l.mu.Unlock()
}

func (l *sentLog) mutation(edges []client.Edge) {
	l.mu.Lock()
	if len(l.mutations) < maxReplayMutations {
		l.mutations = append(l.mutations, edges)
	}
	l.mu.Unlock()
}

// respBook holds the first reply seen for each pool query. Every later
// reply to the same query must equal it bit for bit, whatever batch the
// daemon's dispatcher put it in; the gate phase compares the first replies
// with an in-process assigner.
type respBook struct {
	mu    sync.Mutex
	first map[int]client.Assignment
}

func newRespBook() *respBook { return &respBook{first: make(map[int]client.Assignment)} }

func (b *respBook) check(q int, resp *client.AssignResponse, k int) error {
	if resp.K != k || len(resp.Assignments) != 1 {
		return fmt.Errorf("assign reply: k=%d assignments=%d", resp.K, len(resp.Assignments))
	}
	a := resp.Assignments[0]
	if err := checkRow(a.Theta, a.Cluster); err != nil {
		return fmt.Errorf("assign reply for q%d: %w", q, err)
	}
	b.mu.Lock()
	prev, seen := b.first[q]
	if !seen {
		b.first[q] = a
	}
	b.mu.Unlock()
	if seen && !sameAssignment(prev, a) {
		return fmt.Errorf("assign reply for q%d differs from an earlier reply to the same query", q)
	}
	return nil
}

// checkRow validates a membership row: K finite non-negative entries
// summing to 1, with cluster its argmax.
func checkRow(theta []float64, cluster int) error {
	if len(theta) != numClusters {
		return fmt.Errorf("theta has %d entries, want %d", len(theta), numClusters)
	}
	var sum float64
	best := 0
	for i, x := range theta {
		if math.IsNaN(x) || x < 0 {
			return fmt.Errorf("theta[%d] = %v", i, x)
		}
		sum += x
		if x > theta[best] {
			best = i
		}
	}
	if math.Abs(sum-1) > 1e-9 || cluster != best {
		return fmt.Errorf("theta sums to %v, cluster %d, argmax %d", sum, cluster, best)
	}
	return nil
}

func sameAssignment(a, b client.Assignment) bool {
	if a.Cluster != b.Cluster || a.FoldInIters != b.FoldInIters || !sameFloats(a.Theta, b.Theta) || len(a.Top) != len(b.Top) {
		return false
	}
	for i := range a.Top {
		if a.Top[i].Cluster != b.Top[i].Cluster || math.Float64bits(a.Top[i].P) != math.Float64bits(b.Top[i].P) {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameFit reports whether two results of the same cold fit agree bit for
// bit on γ, objective, EM iterations and every Θ row.
func sameFit(want, got *client.Result) error {
	if got.EMIterations != want.EMIterations || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		return fmt.Errorf("fit em_iterations %d objective %v, want %d and %v", got.EMIterations, got.Objective, want.EMIterations, want.Objective)
	}
	if len(got.Gamma) != len(want.Gamma) {
		return fmt.Errorf("fit has %d strengths, want %d", len(got.Gamma), len(want.Gamma))
	}
	for r, g := range want.Gamma {
		if math.Float64bits(got.Gamma[r]) != math.Float64bits(g) {
			return fmt.Errorf("fit γ(%s) = %v, want %v", r, got.Gamma[r], g)
		}
	}
	if len(got.Objects) != len(want.Objects) {
		return fmt.Errorf("fit has %d objects, want %d", len(got.Objects), len(want.Objects))
	}
	for i := range want.Objects {
		if got.Objects[i].ID != want.Objects[i].ID || !sameFloats(got.Objects[i].Theta, want.Objects[i].Theta) {
			return fmt.Errorf("fit Θ row %d (%s) differs", i, want.Objects[i].ID)
		}
	}
	return nil
}
