package core

import (
	"genclus/internal/hin"
)

// EMHarness wraps a fully-initialized fitting state and exposes single EM
// iterations — the benchmarking hook for the hot path (internal/bench and
// BenchmarkEMIteration drive it). It is not part of the fitting API: Fit
// owns the outer alternation; the harness only exists so a benchmark can
// measure one steady-state E+M pass without timing initialization.
type EMHarness struct {
	s *state
}

// NewEMHarness validates opts against net and prepares a fitting state
// exactly as a single-seed Fit would (scratch sized, the in-link index
// cached under symmetric propagation). When opts.Parallelism > 1 the harness starts a persistent worker
// pool so parallel iterations dispatch without spawning goroutines — call
// Close when done with the harness to stop it. Warm-up: the first
// RunIteration allocates the per-chunk accumulators; every later one is
// allocation-free (at any Parallelism).
func NewEMHarness(net *hin.Network, opts Options) (*EMHarness, error) {
	if err := opts.Validate(net); err != nil {
		return nil, err
	}
	s := newState(net, opts, opts.Seed, false)
	if opts.Parallelism > 1 {
		chunks := (net.NumObjects() + emChunkSize - 1) / emChunkSize
		workers := opts.Parallelism
		if workers > chunks {
			workers = chunks
		}
		if workers > 1 {
			s.pool = newEMPool(workers)
		}
	}
	return &EMHarness{s: s}, nil
}

// RunIteration executes one E+M pass: snapshot Θ_{t−1}, compute
// responsibilities, update Θ and every attribute model β. It must not be
// called after Close.
func (h *EMHarness) RunIteration() {
	h.s.snapshotTheta()
	h.s.emIteration()
}

// Close stops the harness's worker pool, if any. Safe to call more than
// once; only RunIteration is invalid afterwards.
func (h *EMHarness) Close() {
	if h.s.pool != nil {
		h.s.pool.stop()
		h.s.pool = nil
	}
}

// Theta exposes the current membership matrix (shared; do not mutate) so
// benchmarks can keep the result observable to the compiler.
func (h *EMHarness) Theta() [][]float64 { return h.s.theta }
