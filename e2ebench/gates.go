package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"genclus"
	"genclus/client"
	"genclus/internal/hin"
	"genclus/internal/infer"
	"genclus/internal/server"
	"genclus/internal/snapshot"
)

// nmiFloor is the fit-quality gate: the set-up cold fit's NMI against the
// generator's labels (labeled authors and papers, all conferences). It was
// fixed before any result was looked at.
const nmiFloor = 0.5

// gate is one correctness check's outcome.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type gates struct {
	led  *ledger
	list []gate
}

// check records a gate; a failed check counts as a failed operation of the
// gate phase.
func (g *gates) check(name string, err error, detail string) {
	gt := gate{Name: name, OK: err == nil, Detail: detail}
	if err != nil {
		gt.Detail = err.Error()
	}
	g.list = append(g.list, gt)
	g.led.note("gates", err)
}

func (g *gates) passed() bool {
	for _, gt := range g.list {
		if !gt.OK {
			return false
		}
	}
	return true
}

const (
	probeAssigns   = 16
	probeMutations = 4
)

// runGates ends every workload with the same probes — a few assigns and,
// last, a few authorship mutations, so every layer metric has samples on
// every workload — and checks the daemon's outputs against in-process
// references. The mutations go last because they can start a supervisor
// refit, which would compete with the in-process checks. It returns the
// exported model snapshot for the replay.
func runGates(ctx context.Context, s *session, in *inputs, led *ledger, g *gates) []byte {
	var probeErr error
	for q := 0; q < probeAssigns; q++ {
		if err := s.assign(ctx, nil, in, q, "gates", led); err != nil && probeErr == nil {
			probeErr = err
		}
	}
	g.check("assign-probes", probeErr, "")

	model, err := s.c.ExportModel(ctx, s.modelID)
	led.note("gates", err)
	if err == nil {
		err = s.checkAssignBitwise(in, model)
	}
	g.check("assign-bitwise", err, fmt.Sprintf("%d distinct queries", len(s.book.first)))

	net, err := hin.FromJSONLimited(in.doc, server.DefaultLimits())
	if err == nil {
		err = s.checkFitBitwise(net)
	}
	g.check("fit-bitwise", err, fmt.Sprintf("em_iterations %d", s.fit.EMIterations))

	nmi, err := fitNMI(in, s.fit)
	if err == nil && !(nmi >= nmiFloor) {
		err = fmt.Errorf("NMI %.4f below floor %.2f", nmi, nmiFloor)
	}
	g.check("fit-nmi", err, fmt.Sprintf("NMI %.4f (floor %.2f)", nmi, nmiFloor))

	probeErr = nil
	for i := 0; i < probeMutations; i++ {
		if err := s.mutate(ctx, nil, in, "gates", led); err != nil && probeErr == nil {
			probeErr = err
		}
	}
	g.check("mutation-probes", probeErr, "")

	// Every ack advanced generation by one and links by two; the chain
	// must cover every mutation sent.
	var chainErr error
	if s.chain.broken {
		chainErr = fmt.Errorf("mutation chain broken after %d acks", s.chain.acked)
	} else if want := s.baseLinks + 2*s.chain.acked; s.chain.links != want || s.chain.gen != s.chain.acked {
		chainErr = fmt.Errorf("final links %d generation %d, want %d and %d", s.chain.links, s.chain.gen, want, s.chain.acked)
	}
	g.check("mutation-generations", chainErr, fmt.Sprintf("%d mutations, links %d → %d", s.chain.acked, s.baseLinks, s.chain.links))

	h, err := s.c.Health(ctx)
	if err == nil && h.Mutation.RefitsFailed != 0 {
		err = fmt.Errorf("refits_failed = %d", h.Mutation.RefitsFailed)
	}
	g.check("refits-failed-zero", err, "")
	return model
}

// checkAssignBitwise scores every query the daemon answered with an
// in-process assigner built, as the CLI's -assign mode does, from the
// exported snapshot, and requires the replies to match bit for bit.
func (s *session) checkAssignBitwise(in *inputs, model []byte) error {
	snap, err := snapshot.Decode(model, snapshot.DefaultLimits())
	if err != nil {
		return err
	}
	if re, err := snapshot.Encode(snap); err != nil || !bytes.Equal(re, model) {
		return fmt.Errorf("snapshot does not re-encode to its exported bytes (err %v)", err)
	}
	eng, err := genclus.NewAssigner(snap.Model, genclus.AssignOptions{
		TopK:      snap.Model.K,
		Epsilon:   snapshot.EpsilonFromMeta(snap.Meta, snap.Model.K),
		Precision: snap.Precision,
		Unbounded: true,
	})
	if err != nil {
		return err
	}
	for q, got := range s.book.first {
		body, err := json.Marshal(in.queries[q])
		if err != nil {
			return err
		}
		_, queries, err := infer.DecodeRequest(body, 0)
		if err != nil {
			return err
		}
		res, err := eng.AssignBatch(queries)
		if err != nil {
			return err
		}
		want := infer.AssignmentDocs(res, 1)[0]
		if want.Cluster != got.Cluster || want.FoldInIters != got.FoldInIters || !sameFloats(want.Theta, got.Theta) ||
			len(want.Top) != len(got.Top) || math.Float64bits(want.Top[0].P) != math.Float64bits(got.Top[0].P) {
			return fmt.Errorf("q%d: daemon reply differs from the in-process assigner", q)
		}
	}
	return nil
}

// checkFitBitwise repeats the set-up fit in-process, with the options the
// daemon applied (its defaults, the fixed seed, K), on the network as the
// daemon decoded it.
func (s *session) checkFitBitwise(net *hin.Network) error {
	opts := genclus.DefaultOptions(numClusters)
	opts.Seed = fitSeed
	m, err := genclus.Fit(net, opts)
	if err != nil {
		return err
	}
	want := &client.Result{Gamma: m.Gamma, Objective: m.Objective, EMIterations: m.EMIterations}
	for v, row := range m.Theta {
		want.Objects = append(want.Objects, client.ObjectResult{ID: net.Object(v).ID, Theta: row})
	}
	return sameFit(want, s.fit)
}

// fitNMI scores a fit's hard clusters against the generator's labels.
func fitNMI(in *inputs, r *client.Result) (float64, error) {
	cluster := make(map[string]int, len(r.Objects))
	for _, o := range r.Objects {
		cluster[o.ID] = o.Cluster
	}
	var pred, truth []int
	for v, label := range in.ds.Labels {
		c, ok := cluster[in.ds.Net.Object(v).ID]
		if !ok {
			return 0, fmt.Errorf("labeled object %s missing from the fit", in.ds.Net.Object(v).ID)
		}
		pred = append(pred, c)
		truth = append(truth, label)
	}
	return genclus.NMI(pred, truth)
}
