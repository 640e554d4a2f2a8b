package server

import (
	"context"
	"errors"
	"log/slog"
	"math"
	"sync"
	"time"

	"genclus/internal/core"
	"genclus/internal/hin"
	"genclus/internal/infer"
	"genclus/internal/trace"
)

// The continuous-clustering supervisor: one background goroutine per
// mutated network that watches how far the live view has drifted from the
// newest registered model fitted on it, and past configurable thresholds
// schedules an incremental warm-start refit through the ordinary job
// queue. The finished fit registers like any other (persistFinishedJob),
// so /assign traffic rolls forward to the fresh model the moment it is
// published — the engine cache keys by snapshot digest, making rollforward
// a registry pointer swap with zero failed requests.
//
// Two signals trigger a refit, either alone sufficient:
//
//   - pending depth: generations applied since the last refit was
//     scheduled reach Config.SupervisorMaxPending — mutation volume alone
//     eventually forces a refit even when each change is innocuous;
//   - drift score: the mean total-variation distance between the fold-in
//     posterior of recently-touched objects (scored against the model as
//     /assign would) and the model's frozen Θ rows reaches
//     Config.SupervisorDriftThreshold. Objects the model has never seen
//     score the maximum 1.0. This is the practical surrogate for
//     comparing fold-in log-likelihood against the snapshot objective:
//     both measure "the model no longer explains these objects", but the
//     TV form is bounded, parameter-free, and reuses the assign engine.
//
// The supervisor never refits concurrently with itself: while a scheduled
// refit is in flight, evaluation pauses, and settles when the job reaches
// a terminal state. A full job queue is not a failure — the trigger simply
// retries on the next tick.

// maxDriftSample caps how many recently-touched objects one drift
// evaluation scores; mutations past the cap drop the oldest IDs first
// (drift is a sample statistic, not an audit).
const maxDriftSample = 256

// supervisor watches one network. Lifecycle: started by the first
// mutation (ensureSupervisor), stopped by TTL eviction (retireNetwork) or
// server Close — both via halt, which is idempotent and waits for the run
// goroutine to exit.
type supervisor struct {
	s         *Server
	networkID string

	notify chan struct{} // poked (capacity 1) on every mutation
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once

	mu           sync.Mutex
	lastRefitGen int     // generation the last scheduled refit captured
	lastDrift    float64 // most recent drift score
	lastModelID  string  // model the last successful auto-refit published
	refit        *job    // in-flight auto-refit, nil when idle
	triggered    int64
	succeeded    int64
	failed       int64
	touched      []string // recently-touched object IDs, oldest first
	touchedSet   map[string]bool

	// Drift-engine cache, owned by the run goroutine (no lock): rebuilt
	// when the newest model for the network changes.
	engModelID string
	eng        *infer.Engine
	engRows    map[string]int      // model object ID → Θ row
	engAttrs   map[string]hin.Kind // model attribute name → kind
}

func newSupervisor(s *Server, networkID string) *supervisor {
	return &supervisor{
		s:         s,
		networkID: networkID,
		notify:    make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// ensureSupervisor returns the network's supervisor, starting one if the
// entry has none. Registration is atomic with the eviction check: the
// entry must still be the one registered under id, so a TTL-swept network
// can never get a fresh supervisor (retireNetwork has, or will, stop the
// one registered here), and a closed server starts none at all.
func (s *Server) ensureSupervisor(id string, e *networkEntry) *supervisor {
	if s.cfg.SupervisorDisabled {
		return nil
	}
	st := s.store
	st.mu.Lock()
	if st.supsClosed || st.networks[id] != e {
		st.mu.Unlock()
		return nil
	}
	if e.sup != nil {
		sup := e.sup
		st.mu.Unlock()
		return sup
	}
	sup := newSupervisor(s, id)
	e.sup = sup
	st.mu.Unlock()
	go sup.run()
	return sup
}

// halt stops the supervisor and waits for its goroutine to exit.
// Idempotent; safe to call from eviction and Close concurrently.
func (sup *supervisor) halt() {
	sup.once.Do(func() { close(sup.stop) })
	<-sup.done
}

// poke nudges the run loop after a mutation without ever blocking the
// mutation handler.
func (sup *supervisor) poke() {
	select {
	case sup.notify <- struct{}{}:
	default:
	}
}

// recordTouched accumulates the objects a mutation bore evidence about,
// keeping at most maxDriftSample of the newest.
func (sup *supervisor) recordTouched(ids []string) {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	if sup.touchedSet == nil {
		sup.touchedSet = make(map[string]bool)
	}
	for _, id := range ids {
		if sup.touchedSet[id] {
			continue
		}
		sup.touchedSet[id] = true
		sup.touched = append(sup.touched, id)
		if len(sup.touched) > maxDriftSample {
			delete(sup.touchedSet, sup.touched[0])
			sup.touched = sup.touched[1:]
		}
	}
}

// run is the supervisor loop: wake on mutation, on the periodic tick, or
// when an in-flight refit settles; evaluate the drift signals; trigger.
func (sup *supervisor) run() {
	defer close(sup.done)
	t := time.NewTicker(sup.s.cfg.SupervisorInterval)
	defer t.Stop()
	for {
		var refitDone chan struct{}
		sup.mu.Lock()
		if sup.refit != nil {
			refitDone = sup.refit.done
		}
		sup.mu.Unlock()
		select {
		case <-sup.stop:
			return
		case <-refitDone:
			sup.settleRefit()
			continue
		case <-sup.notify:
		case <-t.C:
		}
		sup.evaluate()
	}
}

// evaluate computes the drift signals and triggers a refit when either
// crosses its threshold. A nil return of the latest model (nothing fitted
// on this network yet) means there is nothing to drift from — the first
// fit is always client-initiated.
func (sup *supervisor) evaluate() {
	s := sup.s
	sup.mu.Lock()
	inFlight := sup.refit != nil
	lastGen := sup.lastRefitGen
	touched := append([]string(nil), sup.touched...)
	sup.mu.Unlock()
	if inFlight {
		return
	}
	net, gen, ok := s.store.networkState(sup.networkID)
	if !ok {
		return // evicted; halt arrives shortly
	}
	pending := gen - lastGen
	if pending <= 0 {
		return
	}
	e := s.store.latestModelForNetwork(sup.networkID)
	if e == nil {
		return
	}
	// From here the evaluation does real work (fold-in drift scoring), so it
	// gets its own trace: the decision root, a drift-scoring child, and —
	// when a refit triggers — the refit job's trace continues this trace id,
	// making "why did the fleet refit?" answerable from GET /v1/traces.
	dec := s.tracer.StartTrace("supervisor.decision", trace.SpanContext{}, s.cfg.now())
	dec.SetAttr("network", sup.networkID)
	dec.SetAttr("pending", pending)
	driftStart := s.cfg.now()
	drift := sup.computeDrift(net, e, touched)
	dec.Record("supervisor.drift", driftStart, s.cfg.now()).SetAttr("sample", len(touched))
	sup.mu.Lock()
	sup.lastDrift = drift
	sup.mu.Unlock()
	s.metrics.setDriftScore(drift)
	reason := ""
	if mp := s.cfg.SupervisorMaxPending; mp > 0 && pending >= mp {
		reason = "pending"
	}
	if th := s.cfg.SupervisorDriftThreshold; th > 0 && drift >= th {
		reason = "drift"
	}
	dec.SetAttr("drift", drift)
	if reason == "" {
		dec.SetAttr("reason", "none")
		dec.End(s.cfg.now())
		return
	}
	dec.SetAttr("reason", reason)
	sup.triggerRefit(net, gen, e, drift, pending, reason, dec.Context())
	dec.End(s.cfg.now())
}

// triggerRefit schedules a warm-start refit of the network's current
// generation through submitFit — the path a client POST /v1/jobs with
// warm_start_from_model takes — so the auto-refit model is
// bitwise-identical to a manual warm start of the same generation. parent
// is the supervisor decision's span context, so the refit job's trace
// continues the decision's trace id.
func (sup *supervisor) triggerRefit(net *hin.Network, gen int, e *modelEntry, drift float64, pending int, reason string, parent trace.SpanContext) {
	s := sup.s
	opts := core.DefaultOptions(0) // K inherited from the warm-start model
	// An auto-refit of a float32 model stays float32: the refit replaces
	// the model in place, and silently widening its storage would change
	// snapshot bytes and replica traffic out from under the operator.
	opts.Precision = e.precision
	j, err := s.submitFit(fitSpec{
		networkID: sup.networkID,
		net:       net,
		gen:       gen,
		opts:      opts,
		warm:      e.model,
		parent:    parent,
		trigger:   reason,
	})
	var rej fitRejectedError
	if errors.As(err, &rej) {
		// The model cannot seed a fit of this generation (K out of bounds,
		// incompatible options). Advance past the generation so the
		// supervisor does not spin on an impossible refit, and count the
		// failure.
		sup.mu.Lock()
		sup.lastRefitGen = gen
		sup.failed++
		sup.mu.Unlock()
		s.metrics.supervisorRefitsFailed.Inc()
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "supervisor refit rejected",
			slog.String("network", sup.networkID),
			slog.String("model", e.id),
			slog.Int("generation", gen),
			slog.String("error", err.Error()),
		)
		return
	}
	if err != nil {
		// Queue full: backpressure, not failure. Retry on the next tick.
		s.log.LogAttrs(context.Background(), slog.LevelDebug, "supervisor refit deferred",
			slog.String("network", sup.networkID),
			slog.String("error", err.Error()),
		)
		return
	}
	sup.mu.Lock()
	sup.refit = j
	sup.lastRefitGen = gen
	sup.triggered++
	sup.touched = nil
	sup.touchedSet = nil
	sup.mu.Unlock()
	s.metrics.supervisorRefitsTriggered.Inc()
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "supervisor refit triggered",
		slog.String("network", sup.networkID),
		slog.String("job", j.id),
		slog.String("model", e.id),
		slog.Int("generation", gen),
		slog.Int("pending", pending),
		slog.Float64("drift", drift),
		slog.String("reason", reason),
	)
}

// settleRefit accounts a finished auto-refit. Success means the fitted
// model was registered (persistFinishedJob ran before the done
// transition), so /assign is already rolling forward.
func (sup *supervisor) settleRefit() {
	sup.mu.Lock()
	j := sup.refit
	sup.refit = nil
	sup.mu.Unlock()
	if j == nil {
		return
	}
	snap := j.snapshot()
	if snap.state == jobDone {
		sup.mu.Lock()
		sup.succeeded++
		sup.lastModelID = snap.modelID
		sup.mu.Unlock()
		sup.s.metrics.supervisorRefitsSucceeded.Inc()
		sup.s.log.LogAttrs(context.Background(), slog.LevelInfo, "supervisor refit published",
			slog.String("network", sup.networkID),
			slog.String("job", j.id),
			slog.String("model", snap.modelID),
			slog.Int("generation", j.generation),
		)
		return
	}
	sup.mu.Lock()
	sup.failed++
	sup.mu.Unlock()
	sup.s.metrics.supervisorRefitsFailed.Inc()
	sup.s.log.LogAttrs(context.Background(), slog.LevelWarn, "supervisor refit failed",
		slog.String("network", sup.networkID),
		slog.String("job", j.id),
		slog.String("state", string(snap.state)),
		slog.String("error", snap.errMsg),
	)
}

// computeDrift scores the touched sample against the model: per object the
// total-variation distance ½·Σ|θ̂−θ| between its fold-in posterior on the
// CURRENT view and the model's frozen Θ row; objects the model never
// fitted (or whose fold-in fails) score the maximum 1.0. Returns the mean
// over the sample — 0 when there is nothing to score.
func (sup *supervisor) computeDrift(net *hin.Network, e *modelEntry, touched []string) float64 {
	if len(touched) == 0 {
		return 0
	}
	if err := sup.driftEngine(e); err != nil {
		// A model that cannot build an engine cannot serve /assign either;
		// refitting from it would not help. No drift evidence.
		sup.s.log.LogAttrs(context.Background(), slog.LevelWarn, "supervisor drift engine build failed",
			slog.String("network", sup.networkID),
			slog.String("model", e.id),
			slog.String("error", err.Error()),
		)
		return 0
	}
	var total float64
	for _, id := range touched {
		total += sup.objectDrift(net, e, id)
	}
	return total / float64(len(touched))
}

// objectDrift scores one object: 1.0 for objects outside the model, else
// the TV distance between its fold-in posterior and its frozen Θ row.
func (sup *supervisor) objectDrift(net *hin.Network, e *modelEntry, id string) float64 {
	row, known := sup.engRows[id]
	if !known {
		return 1 // the model has no opinion at all — maximal drift
	}
	v, ok := net.IndexOf(id)
	if !ok {
		return 1 // gone from the live view (defensive; objects are not removable)
	}
	q := infer.Query{ID: id}
	// Only evidence the model can interpret enters the query: links whose
	// relation carries a learned strength and whose target the model knows,
	// observations of attributes the model fitted. Evidence outside that —
	// a new relation, links to new objects — contributes by its absence.
	for _, edge := range net.OutEdges(v) {
		rel := net.RelationName(edge.Rel)
		if _, ok := e.model.Gamma[rel]; !ok {
			continue
		}
		to := net.Object(edge.To).ID
		if _, ok := sup.engRows[to]; !ok {
			continue
		}
		q.Links = append(q.Links, infer.Link{Relation: rel, To: to, Weight: edge.Weight})
	}
	for a := 0; a < net.NumAttrs(); a++ {
		spec := net.Attr(a)
		kind, ok := sup.engAttrs[spec.Name]
		if !ok || kind != spec.Kind {
			continue
		}
		switch spec.Kind {
		case hin.Categorical:
			if tcs := net.TermCounts(a, v); len(tcs) > 0 {
				q.Terms = append(q.Terms, infer.CatObs{Attr: spec.Name, Terms: tcs})
			}
		case hin.Numeric:
			if xs := net.NumericObs(a, v); len(xs) > 0 {
				q.Numeric = append(q.Numeric, infer.NumObs{Attr: spec.Name, Values: xs})
			}
		}
	}
	asg, err := sup.eng.Assign(q)
	if err != nil {
		return 1
	}
	ref := e.model.Theta[row]
	var tv float64
	for k, p := range asg.Theta {
		tv += math.Abs(p - ref[k])
	}
	return 0.5 * tv
}

// driftEngine (re)builds the supervisor's private fold-in engine when the
// newest model changed. It is never shared with /assign traffic — the
// engine's scratch arena is single-goroutine — and it scores with the
// model's own epsilon so posteriors match what training rows would
// reproduce.
func (sup *supervisor) driftEngine(e *modelEntry) error {
	if sup.engModelID == e.id && sup.eng != nil {
		return nil
	}
	eng, err := infer.NewEngine(e.model, infer.Options{
		TopK:      1,
		Epsilon:   sup.s.modelEpsilon(e),
		Precision: e.precision,
		// The queries come from the network itself, already behind
		// hin.Limits; request-style caps do not apply.
		Unbounded: true,
	})
	if err != nil {
		return err
	}
	ids := e.model.ObjectIDs()
	rows := make(map[string]int, len(ids))
	for i, id := range ids {
		rows[id] = i
	}
	attrs := make(map[string]hin.Kind, len(e.model.Attrs))
	for _, am := range e.model.Attrs {
		attrs[am.Name] = am.Kind
	}
	sup.eng, sup.engRows, sup.engAttrs, sup.engModelID = eng, rows, attrs, e.id
	return nil
}

// status is the supervisor's introspection snapshot for GET
// /v1/networks/{id}/supervisor.
type supervisorStatus struct {
	lastRefitGen int
	lastDrift    float64
	lastModelID  string
	refitJobID   string
	triggered    int64
	succeeded    int64
	failed       int64
}

func (sup *supervisor) status() supervisorStatus {
	sup.mu.Lock()
	defer sup.mu.Unlock()
	st := supervisorStatus{
		lastRefitGen: sup.lastRefitGen,
		lastDrift:    sup.lastDrift,
		lastModelID:  sup.lastModelID,
		triggered:    sup.triggered,
		succeeded:    sup.succeeded,
		failed:       sup.failed,
	}
	if sup.refit != nil {
		st.refitJobID = sup.refit.id
	}
	return st
}
