package server

import (
	"context"
	"encoding/json"
	"log/slog"
	"strconv"
	"time"

	"genclus/internal/core"
	"genclus/internal/deltalog"
	"genclus/internal/hin"
	"genclus/internal/snapshot"
)

// Persistence layer: with Config.DataDir set, every job that finishes done
// writes two durable artifacts through the crash-safe blob store before its
// done state becomes visible — the model snapshot (bucket "models", the
// binary codec from internal/snapshot) and a small job record (bucket
// "jobs", JSON) tying the job id to the model and pinning the object types
// the result endpoint serves. New replays both buckets at startup, so a
// genclusd killed with SIGKILL comes back serving every fit that had
// reported done.
//
// The durability contract (also in docs/ARCHITECTURE.md):
//
//   - done ⇒ durable: a job observed in state done has its snapshot and
//     record fsynced; a crash at any point loses at most jobs that were
//     still queued or running (clients resubmit those);
//   - models outlive jobs: the TTL sweeper evicts finished jobs (memory
//     and disk) but never registry models — those persist until DELETE
//     /v1/models/{id} or MaxModels overflow eviction;
//   - recovery is best-effort per artifact: a corrupt or unreadable blob is
//     skipped (and counted), never fatal, and cannot take the daemon down.

// Blob-store buckets.
const (
	bucketModels = "models"
	bucketJobs   = "jobs"
)

// jobRecord is the persisted form of a finished job. Θ, γ and the attribute
// models live in the referenced model snapshot; the record carries only
// what the snapshot does not: the job identity, timing, the object types
// (aligned with the snapshot's object IDs) and eval metrics.
type jobRecord struct {
	ID          string         `json:"id"`
	NetworkID   string         `json:"network_id"`
	ModelID     string         `json:"model_id"`
	Created     time.Time      `json:"created"`
	Started     time.Time      `json:"started"`
	Finished    time.Time      `json:"finished"`
	Outer       int            `json:"outer"`                   // final progress, so a recovered
	OuterTotal  int            `json:"outer_total"`             // job's status reads like a live one
	Objective   float64        `json:"objective,omitempty"`     // final objective (progress parity)
	EMIters     int            `json:"em_iterations,omitempty"` // EM steps of the final iteration
	ObjectTypes []string       `json:"object_types"`
	Metrics     *resultMetrics `json:"metrics,omitempty"`
}

// persistFinishedJob runs on the worker goroutine after the fitted state is
// recorded on the job but before the done transition is published:
// registers the model (always) and persists snapshot + record (when a data
// dir is configured). Persistence failures degrade to memory-only serving —
// the fit is not failed retroactively — but never silently: each failure is
// logged and counted into /healthz's persist_failures so a full volume
// shows up long before a restart reveals the lost fits.
func (s *Server) persistFinishedJob(j *job, finished time.Time) {
	snap := j.snapshot()
	if snap.result == nil {
		return
	}
	meta := map[string]string{
		metaCreated:            finished.UTC().Format(time.RFC3339Nano),
		metaJobID:              j.id,
		metaNetworkID:          j.networkID,
		metaNetworkGeneration:  strconv.Itoa(j.generation),
		metaOptionsDigest:      snapshot.OptionsDigest(j.opts),
		snapshot.MetaEpsilon:   snapshot.FormatEpsilon(j.opts.Epsilon),
		snapshot.MetaPrecision: snapshot.FormatPrecision(j.opts.Precision),
	}
	entry, err := s.registerModel(snap.result, meta, finished, j.id, j.networkID)
	if err != nil {
		s.persistFailure("register model for job "+j.id, err)
		return
	}
	j.setModelID(entry.id)
	if s.blobs == nil {
		return
	}
	types := make([]string, len(snap.objects))
	for i, o := range snap.objects {
		types[i] = o.Type
	}
	rec := jobRecord{
		ID:          j.id,
		NetworkID:   j.networkID,
		ModelID:     entry.id,
		Created:     j.created.UTC(),
		Started:     snap.started.UTC(),
		Finished:    finished.UTC(),
		Outer:       snap.progress.Outer,
		OuterTotal:  snap.progress.OuterTotal,
		Objective:   snap.progress.Objective,
		EMIters:     snap.progress.EMIterations,
		ObjectTypes: types,
		Metrics:     snap.metrics,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		s.persistFailure("encode record for job "+j.id, err)
		return
	}
	if err := s.blobs.Put(bucketJobs, j.id, data); err != nil {
		s.persistFailure("persist record for job "+j.id, err)
	}
}

// persistFailure is the degraded-durability signal for any persistence
// write that failed to reach the data dir — fit snapshots and job records,
// synced models, base networks, and delta-log open, append and purge: one
// structured log line per failure plus genclus_persist_failures_total,
// which /healthz serves as persist_failures.
func (s *Server) persistFailure(what string, err error) {
	s.metrics.persistFailures.Inc()
	s.log.LogAttrs(context.Background(), slog.LevelError, "persistence degraded",
		slog.String("what", what),
		slog.String("error", err.Error()),
	)
}

// dropPersistedJob removes a TTL-evicted job's record from disk (the model
// snapshot stays — models are durable until deleted).
func (s *Server) dropPersistedJob(id string) {
	if s.blobs != nil {
		_ = s.blobs.Delete(bucketJobs, id)
	}
}

// RecoveryStats reports what a data-dir scan restored and skipped.
type RecoveryStats struct {
	Models        int // models restored into the registry
	Jobs          int // finished jobs restored into the job table
	Networks      int // mutated networks rebuilt from base + delta log
	Mutations     int // delta-log records replayed across those networks
	SkippedBlobs  int // corrupt or undecodable artifacts left in place
	OrphanRecords int // job records whose model snapshot is gone
}

// Recovered returns the startup recovery statistics (zero without a data
// dir) — cmd/genclusd logs them.
func (s *Server) Recovered() RecoveryStats { return s.recovered }

// recoverFromDisk replays the data dir into the in-memory registry and job
// table. Per-artifact failures are counted and skipped: recovery must bring
// back everything readable rather than refuse to start on the first bad
// byte.
func (s *Server) recoverFromDisk() error {
	lim := snapshot.DefaultLimits()
	modelIDs, err := s.blobs.List(bucketModels)
	if err != nil {
		return err
	}
	for _, id := range modelIDs {
		data, err := s.blobs.Get(bucketModels, id)
		if err != nil {
			s.recovered.SkippedBlobs++
			continue
		}
		snap, err := snapshot.Decode(data, lim)
		if err != nil {
			s.recovered.SkippedBlobs++
			continue
		}
		// Registry age is when the model was registered HERE (the file's
		// local mtime), not the snapshot meta's created — an imported
		// snapshot carries its exporter's fit time, and keying MaxModels
		// eviction or listing order on that would reshuffle (and evict the
		// wrong model) across restarts.
		created, err := s.blobs.ModTime(bucketModels, id)
		if err != nil {
			created = s.cfg.now()
		}
		e := &modelEntry{
			id:        id,
			model:     snap.Model,
			meta:      snap.Meta,
			created:   created,
			digest:    snapshot.DataDigest(data),
			size:      int64(len(data)),
			precision: snap.Precision,
			jobID:     snap.Meta[metaJobID],
			networkID: snap.Meta[metaNetworkID],
		}
		s.admitModel(e)
		s.recovered.Models++
	}

	jobIDs, err := s.blobs.List(bucketJobs)
	if err != nil {
		return err
	}
	for _, id := range jobIDs {
		data, err := s.blobs.Get(bucketJobs, id)
		if err != nil {
			s.recovered.SkippedBlobs++
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil || rec.ID != id {
			s.recovered.SkippedBlobs++
			continue
		}
		entry, ok := s.store.model(rec.ModelID)
		if !ok {
			// The model was deleted (or its snapshot corrupted) out from
			// under the record; a result we cannot serve is not a job we
			// can claim to have. Drop the record so the orphan is not
			// rediscovered on every restart.
			s.recovered.OrphanRecords++
			_ = s.blobs.Delete(bucketJobs, id)
			continue
		}
		ids := entry.model.ObjectIDs()
		if len(rec.ObjectTypes) != len(ids) {
			s.recovered.SkippedBlobs++
			continue
		}
		objects := make([]objectInfo, len(ids))
		for i := range ids {
			objects[i] = objectInfo{ID: ids[i], Type: rec.ObjectTypes[i]}
		}
		j := &job{
			id:        rec.ID,
			networkID: rec.NetworkID,
			created:   rec.Created,
			state:     jobDone,
			progress:  core.Progress{Outer: rec.Outer, OuterTotal: rec.OuterTotal, Objective: rec.Objective, EMIterations: rec.EMIters},
			result:    entry.model,
			objects:   objects,
			metrics:   rec.Metrics,
			modelID:   rec.ModelID,
			started:   rec.Started,
			finished:  rec.Finished,
			done:      make(chan struct{}),
		}
		close(j.done)
		s.store.addJob(j)
		s.recovered.Jobs++
	}
	return s.recoverNetworks()
}

// recoverNetworks rebuilds every mutated network from its persisted base
// document plus the durable contiguous prefix of its delta log — sequence
// 0 upward, stopping at the first gap, torn record or inconsistent apply,
// and truncating the log there — so the restored network is exactly some
// acknowledged generation and the next mutation continues the sequence. A
// SIGKILL mid-mutation therefore loses nothing acknowledged. Delta
// records without a base (a crash between base-put and first append, or a
// base that rotted) are purged: they can never be applied again.
func (s *Server) recoverNetworks() error {
	baseIDs, err := s.blobs.List(bucketNetworks)
	if err != nil {
		return err
	}
	based := make(map[string]bool, len(baseIDs))
	for _, id := range baseIDs {
		based[id] = true
		data, err := s.blobs.Get(bucketNetworks, id)
		if err != nil {
			s.recovered.SkippedBlobs++
			continue
		}
		net, err := hin.FromJSONLimited(data, s.cfg.Limits)
		if err != nil {
			s.recovered.SkippedBlobs++
			continue
		}
		dl, err := deltalog.Open(s.blobs, id)
		if err != nil {
			s.recovered.SkippedBlobs++
			continue
		}
		applied, err := dl.Replay(s.cfg.Limits, func(seq int, m *deltalog.Mutation) error {
			next, err := deltalog.Apply(net, m)
			if err != nil {
				return err
			}
			if err := s.cfg.Limits.CheckNetwork(next); err != nil {
				return err
			}
			net = next
			return nil
		})
		if err != nil {
			s.recovered.SkippedBlobs++
			continue
		}
		s.store.restoreNetwork(id, net, applied, dl)
		s.recovered.Networks++
		s.recovered.Mutations += applied
	}
	logIDs, err := deltalog.ListNetworkIDs(s.blobs)
	if err != nil {
		return err
	}
	for _, id := range logIDs {
		if based[id] {
			continue
		}
		dl, err := deltalog.Open(s.blobs, id)
		if err == nil {
			err = dl.Purge()
		}
		if err != nil {
			s.recovered.SkippedBlobs++
		} else {
			s.recovered.OrphanRecords++
		}
	}
	return nil
}
