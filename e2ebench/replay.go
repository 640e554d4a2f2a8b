package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"genclus/client"
	"genclus/internal/deltalog"
	"genclus/internal/hin"
	"genclus/internal/infer"
	"genclus/internal/server"
	"genclus/internal/snapshot"
	"genclus/internal/store"
	"genclus/internal/trace"
)

// replayRepeats is how often each one-off set-up step (network build,
// engine build, snapshot encode, store put) is repeated; its median is
// reported.
const replayRepeats = 5

// replay pushes the run's own inputs through each layer's public functions
// in-process, in the order the daemon calls them, recording one span per
// call, as children of one "replay" trace on tr: the network upload (hin), the fitted model's persistence
// (snapshot, store), the assign path (infer) for the assign requests the
// run sent, and the mutation path (deltalog, hin, store) for the
// mutations it sent, applied in order from the uploaded network. It
// returns the per-layer medians.
func replay(tr *trace.Recorder, in *inputs, sent *sentLog, model []byte, dir string) (map[string]float64, error) {
	root := tr.StartTrace("replay", trace.SpanContext{}, time.Now())
	defer func() { root.End(time.Now()) }()
	out := make(map[string]float64)
	lim := server.DefaultLimits()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	// span runs fn, records it as a child span and returns its duration.
	span := func(name string, fn func() error) (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		root.Record(name, t0, t1)
		return t1.Sub(t0), err
	}
	repeat := func(name string, fn func() error) error {
		var xs []float64
		for i := 0; i < replayRepeats; i++ {
			d, err := span(name, fn)
			if err != nil {
				return fmt.Errorf("replay %s: %w", name, err)
			}
			xs = append(xs, ms(d))
		}
		out[name+"_ms"] = median(xs)
		return nil
	}

	// Upload: decode the network document and build its CSR views.
	var base *hin.Network
	if err := repeat("hin.build", func() error {
		n, err := hin.FromJSONLimited(in.doc, lim)
		if err == nil {
			n.PrepareCSR()
			base = n
		}
		return err
	}); err != nil {
		return nil, err
	}

	// Fit persistence: encode the model snapshot and put it in the store.
	snap, err := snapshot.Decode(model, snapshot.DefaultLimits())
	if err != nil {
		return nil, err
	}
	if err := repeat("snapshot.encode", func() error {
		data, err := snapshot.Encode(snap)
		if err == nil && !bytes.Equal(data, model) {
			err = fmt.Errorf("re-encoded snapshot differs from the exported bytes")
		}
		return err
	}); err != nil {
		return nil, err
	}
	out["snapshot.bytes"] = float64(len(model))
	blobs, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	puts := 0
	if err := repeat("store.put", func() error {
		puts++
		return blobs.Put("models", fmt.Sprintf("replay-%d", puts), model)
	}); err != nil {
		return nil, err
	}

	// Assign: the engine the daemon builds on a cache miss, then each sent
	// request through decode → validate + pass → encode.
	var eng *infer.Engine
	if err := repeat("infer.engine_build", func() error {
		e, err := infer.NewEngine(snap.Model, infer.Options{
			TopK:      snap.Model.K,
			Epsilon:   snapshot.EpsilonFromMeta(snap.Meta, snap.Model.K),
			Precision: snap.Precision,
			Limits:    infer.Limits{MaxLinks: 4096, MaxTerms: 4096, MaxValues: 4096},
		})
		eng = e
		return err
	}); err != nil {
		return nil, err
	}
	var dec, pass, enc []float64
	for _, q := range sent.queries {
		body, err := json.Marshal(in.queries[q])
		if err != nil {
			return nil, err
		}
		var queries []infer.Query
		d, err := span("infer.decode", func() (err error) {
			_, queries, err = infer.DecodeRequest(body, 256)
			return err
		})
		dec = append(dec, us(d))
		if err != nil {
			return nil, err
		}
		var res []infer.Assignment
		d, err = span("infer.pass", func() (err error) {
			if err = eng.Validate(queries); err == nil {
				res, err = eng.AssignBatch(queries)
			}
			return err
		})
		pass = append(pass, us(d))
		if err != nil {
			return nil, err
		}
		d, err = span("infer.encode", func() error {
			_, err := json.Marshal(struct {
				Assignments []infer.AssignmentDoc `json:"assignments"`
			}{infer.AssignmentDocs(res, 1)})
			return err
		})
		enc = append(enc, us(d))
		if err != nil {
			return nil, err
		}
	}
	out["infer.decode_us"], out["infer.pass_us"], out["infer.encode_us"] = median(dec), median(pass), median(enc)

	// Mutations: decode → apply → limit check → CSR → durable append, each
	// applied to the previous generation as the daemon does.
	mblobs, err := store.Open(dir + "-deltas")
	if err != nil {
		return nil, err
	}
	dl, err := deltalog.Open(mblobs, "replay")
	if err != nil {
		return nil, err
	}
	var mdec, apply, check, csr, appendT []float64
	cur := base
	for _, edges := range sent.mutations {
		body, err := edgesDoc(edges)
		if err != nil {
			return nil, err
		}
		var m *deltalog.Mutation
		d, err := span("deltalog.decode", func() (err error) {
			m, err = deltalog.Decode(deltalog.OpEdges, body, lim)
			return err
		})
		mdec = append(mdec, us(d))
		if err != nil {
			return nil, err
		}
		var next *hin.Network
		d, err = span("deltalog.apply", func() (err error) {
			next, err = deltalog.Apply(cur, m)
			return err
		})
		apply = append(apply, ms(d))
		if err != nil {
			return nil, err
		}
		d, err = span("hin.check", func() error { return lim.CheckNetwork(next) })
		check = append(check, us(d))
		if err != nil {
			return nil, err
		}
		d, _ = span("hin.prepare_csr", func() error { next.PrepareCSR(); return nil })
		csr = append(csr, ms(d))
		d, err = span("deltalog.append", func() error {
			_, err := dl.Append(m)
			return err
		})
		appendT = append(appendT, ms(d))
		if err != nil {
			return nil, err
		}
		cur = next
	}
	out["deltalog.decode_us"], out["deltalog.apply_ms"], out["hin.check_us"] = median(mdec), median(apply), median(check)
	out["hin.prepare_csr_ms"], out["deltalog.append_ms"] = median(csr), median(appendT)
	os.RemoveAll(dir)
	os.RemoveAll(dir + "-deltas")
	return out, nil
}

// edgesDoc is the POST /v1/networks/{id}/edges body, as the SDK sends it.
func edgesDoc(edges []client.Edge) ([]byte, error) {
	return json.Marshal(struct {
		Add []client.Edge `json:"add"`
	}{edges})
}
