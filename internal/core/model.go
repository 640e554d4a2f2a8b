package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"genclus/internal/hin"
	"genclus/internal/stats"
)

// CatParams are the fitted parameters of a categorical attribute: Beta[k][l]
// is the probability of term l in cluster k (β in Eq. 3).
type CatParams struct {
	Beta [][]float64
}

// GaussParams are the fitted parameters of a numeric attribute: per-cluster
// mean and variance (β_k = (µ_k, σ_k²) in Eq. 4).
type GaussParams struct {
	Mu  []float64
	Var []float64
}

// AttrModel is the fitted component model of one attribute.
type AttrModel struct {
	Name  string
	Kind  hin.Kind
	Cat   *CatParams   // set when Kind == Categorical
	Gauss *GaussParams // set when Kind == Numeric
}

// state is the mutable fitting state.
type state struct {
	net   *hin.Network
	opts  Options
	attrs []int      // dense attribute ids in play
	kind  []hin.Kind // attribute kind by dense attr id

	// ctx aborts the fit between EM iterations; never nil.
	ctx context.Context

	theta [][]float64 // |V| × K
	gamma []float64   // |R|

	cat   []*CatParams   // by attr id; nil for numeric/out-of-play attrs
	gauss []*GaussParams // by attr id; nil for categorical/out-of-play attrs

	// The in-link index symmetric propagation walks, cached from the
	// network at construction; nil unless SymmetricPropagation is set. The
	// out-links are the network's edge list, read through OutEdges.
	inStart  []int
	inFrom   []int
	inRel    []int
	inWeight []float64

	// Raw observation rows cached from the network by attr id, so the
	// E-step walks observations without per-object accessor calls.
	termRows [][][]hin.TermCount
	numRows  [][][]float64

	// Per-iteration EM scratch, allocated once and reused so the
	// steady-state EM loop is allocation-free (see em.go).
	catT       [][]float64 // by attr id: term-major transpose of β, flat Vocab×K
	halfLogVar [][]float64 // by attr id: 0.5·ln σ²_k per Gaussian component
	thetaOld   [][]float64 // Θ_{t−1} snapshot buffer (snapshotTheta)
	accums     []*emAccum  // one per reduction chunk (ensureEMScratch)

	// Flat contiguous panels backing the theta/thetaOld row sets, kept in
	// lockstep by snapshotTheta. The E-step link kernels index Θ_{t−1}
	// through thetaOldF (one bounds-checked load per edge instead of a row
	// header chase); the values are the same memory the rows alias, so the
	// arithmetic is unchanged.
	thetaF    []float64
	thetaOldF []float64

	// Parallel EM machinery (see em.go): an optional persistent worker pool,
	// the atomic work counters the workers drain, the shared WaitGroup, and
	// the precomputed entry-range segments of the parallel statistics merge.
	pool      *emPool
	emNext    atomic.Int64
	mergeNext atomic.Int64
	emWG      sync.WaitGroup
	mergeSegs []mergeSeg

	// Reusable strength-learning statistics (see strength.go).
	strength      strengthStats
	strengthReady bool

	rng *rand.Rand
	// permuteGaussInit shuffles the quantile-seeded Gaussian means per
	// attribute. Best-of-seeds initialization sets it on all but the first
	// seed so the restarts explore different cross-attribute component
	// pairings (e.g. the anti-diagonal corners of weather Setting 2, which
	// sorted quantile seeding can never express).
	permuteGaussInit bool
}

func newState(net *hin.Network, opts Options, seed int64, permuteGauss bool) *state {
	nAttr := net.NumAttrs()
	s := &state{
		net:              net,
		opts:             opts,
		ctx:              context.Background(),
		attrs:            opts.attrIDs(net),
		kind:             make([]hin.Kind, nAttr),
		rng:              rand.New(rand.NewSource(seed)),
		cat:              make([]*CatParams, nAttr),
		gauss:            make([]*GaussParams, nAttr),
		catT:             make([][]float64, nAttr),
		halfLogVar:       make([][]float64, nAttr),
		permuteGaussInit: permuteGauss,
	}
	for a := 0; a < nAttr; a++ {
		s.kind[a] = net.Attr(a).Kind
	}
	if opts.SymmetricPropagation {
		// Built once per network: concurrent fits share one build.
		s.inStart, s.inFrom, s.inRel, s.inWeight = net.InLinkArrays()
	}
	s.termRows = make([][][]hin.TermCount, nAttr)
	s.numRows = make([][][]float64, nAttr)
	for _, a := range s.attrs {
		spec := net.Attr(a)
		switch spec.Kind {
		case hin.Categorical:
			s.catT[a] = make([]float64, spec.VocabSize*opts.K)
			s.termRows[a] = net.AttrTermCounts(a)
		case hin.Numeric:
			s.halfLogVar[a] = make([]float64, opts.K)
			s.numRows[a] = net.AttrNumericObs(a)
		}
	}
	g0 := opts.InitialGamma
	if g0 == 0 {
		g0 = 1 // "initially all link types equally important" (§4.3)
	}
	s.gamma = make([]float64, net.NumRelations())
	for r := range s.gamma {
		s.gamma[r] = g0
	}
	if opts.InitGamma != nil {
		copy(s.gamma, opts.InitGamma)
	}
	s.initTheta()
	s.initAttrModels()
	// Commit the initial state at the configured storage precision, so the
	// first E-step already reads float32-representable parameters (no-ops
	// under the float64 default).
	s.roundTheta(0, net.NumObjects())
	s.roundGamma()
	s.roundAttrModels()
	return s
}

func (s *state) initTheta() {
	n := s.net.NumObjects()
	k := s.opts.K
	backing := make([]float64, n*k)
	s.thetaF = backing
	s.theta = make([][]float64, n)
	for v := 0; v < n; v++ {
		row := backing[v*k : (v+1)*k]
		if s.opts.InitTheta != nil {
			copy(row, s.opts.InitTheta[v])
		} else {
			copy(row, stats.SampleSimplexUniform(s.rng, k))
		}
		stats.FloorAndNormalize(row, s.opts.Epsilon)
		s.theta[v] = row
	}
}

func (s *state) initAttrModels() {
	warm := make(map[string]AttrModel, len(s.opts.InitAttrs))
	for _, am := range s.opts.InitAttrs {
		warm[am.Name] = am
	}
	for _, a := range s.attrs {
		spec := s.net.Attr(a)
		switch spec.Kind {
		case hin.Categorical:
			if am, ok := warm[spec.Name]; ok && am.Kind == hin.Categorical {
				s.cat[a] = warmCat(am.Cat, spec.VocabSize)
			} else {
				s.cat[a] = s.initCat(a, spec)
			}
		case hin.Numeric:
			if am, ok := warm[spec.Name]; ok && am.Kind == hin.Numeric {
				s.gauss[a] = &GaussParams{
					Mu:  append([]float64(nil), am.Gauss.Mu...),
					Var: append([]float64(nil), am.Gauss.Var...),
				}
			} else {
				s.gauss[a] = s.initGauss(a)
			}
		}
	}
}

// warmCat deep-copies a warm-start categorical model onto the network's
// vocabulary. A grown vocabulary gets uniform residual mass on the new
// terms: each component keeps its learned shape but can still claim terms
// it has never seen.
func warmCat(src *CatParams, vocab int) *CatParams {
	beta := make([][]float64, len(src.Beta))
	for k, row := range src.Beta {
		dst := make([]float64, vocab)
		copy(dst, row)
		if extra := vocab - len(row); extra > 0 {
			// Give the unseen tail the mass of one average seen term,
			// spread uniformly, then renormalize. Scale by the row's actual
			// mass so unnormalized warm-start rows (Validate only requires
			// sum > 0) get the same relative share as normalized ones.
			var mass float64
			for _, p := range row {
				mass += p
			}
			fill := mass / float64(len(row)*(extra))
			for l := len(row); l < vocab; l++ {
				dst[l] = fill
			}
		}
		stats.Normalize(dst)
		beta[k] = dst
	}
	return &CatParams{Beta: beta}
}

// initCat gives each cluster a perturbed-uniform term distribution — the
// standard PLSA initialization.
func (s *state) initCat(a int, spec hin.AttrSpec) *CatParams {
	k := s.opts.K
	beta := make([][]float64, k)
	for c := 0; c < k; c++ {
		row := make([]float64, spec.VocabSize)
		for l := range row {
			row[l] = 1 + 0.5*s.rng.Float64()
		}
		stats.Normalize(row)
		beta[c] = row
	}
	return &CatParams{Beta: beta}
}

// initGauss seeds component k of every numeric attribute at the
// (k+½)/K-quantile of the attribute's pooled observations, with a shared
// global variance. Quantile seeding keeps component indices aligned across
// attributes (component k is "low" for every attribute, component K−1
// "high"), which matters when several incomplete numeric attributes must
// agree on a joint hidden space — random seeding routinely permutes the
// attributes against each other and strands EM in a misaligned optimum.
func (s *state) initGauss(a int) *GaussParams {
	k := s.opts.K
	var all []float64
	for v := 0; v < s.net.NumObjects(); v++ {
		all = append(all, s.net.NumericObs(a, v)...)
	}
	gp := &GaussParams{Mu: make([]float64, k), Var: make([]float64, k)}
	if len(all) == 0 {
		// No observations anywhere: arbitrary unit-spread components.
		for c := 0; c < k; c++ {
			gp.Mu[c] = float64(c)
			gp.Var[c] = 1
		}
		return gp
	}
	sort.Float64s(all)
	var mean, ss float64
	for _, x := range all {
		mean += x
	}
	mean /= float64(len(all))
	for _, x := range all {
		d := x - mean
		ss += d * d
	}
	globalVar := ss / float64(len(all))
	if globalVar < s.opts.VarFloor {
		globalVar = s.opts.VarFloor
	}
	n := len(all)
	order := make([]int, k)
	for c := range order {
		order[c] = c
	}
	if s.permuteGaussInit {
		s.rng.Shuffle(k, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for c := 0; c < k; c++ {
		q := (float64(order[c]) + 0.5) / float64(k)
		idx := int(q * float64(n))
		if idx >= n {
			idx = n - 1
		}
		gp.Mu[c] = all[idx]
		gp.Var[c] = globalVar
	}
	return gp
}

// cloneTheta deep-copies the membership matrix (used for snapshots and for
// best-of-seeds bookkeeping).
func cloneTheta(theta [][]float64) [][]float64 {
	if theta == nil {
		return nil
	}
	k := 0
	if len(theta) > 0 {
		k = len(theta[0])
	}
	backing := make([]float64, len(theta)*k)
	out := make([][]float64, len(theta))
	for v, row := range theta {
		dst := backing[v*k : (v+1)*k]
		copy(dst, row)
		out[v] = dst
	}
	return out
}

// snapshotModels deep-copies the fitted attribute models for the Result.
func (s *state) snapshotModels() []AttrModel {
	out := make([]AttrModel, 0, len(s.attrs))
	for _, a := range s.attrs {
		spec := s.net.Attr(a)
		m := AttrModel{Name: spec.Name, Kind: spec.Kind}
		switch spec.Kind {
		case hin.Categorical:
			src := s.cat[a]
			beta := make([][]float64, len(src.Beta))
			for i, row := range src.Beta {
				beta[i] = append([]float64(nil), row...)
			}
			m.Cat = &CatParams{Beta: beta}
		case hin.Numeric:
			src := s.gauss[a]
			m.Gauss = &GaussParams{
				Mu:  append([]float64(nil), src.Mu...),
				Var: append([]float64(nil), src.Var...),
			}
		}
		out = append(out, m)
	}
	return out
}

// featureSum computes Σ_e f(θ_i, θ_j, e, γ) — the structural part of the
// objective g₁ (Eq. 9) under the current Θ and the given γ.
func (s *state) featureSum(gamma []float64) float64 {
	var sum float64
	for _, e := range s.net.Edges() {
		ti := s.theta[e.From]
		tj := s.theta[e.To]
		var ce float64
		for k := range ti {
			ce += tj[k] * math.Log(ti[k])
		}
		sum += gamma[e.Rel] * e.Weight * ce
	}
	return sum
}

// attrLogLikelihood computes Σ_X Σ_v Σ_x log Σ_k θ_vk p(x|β_k) — the
// generative part of the objective (Eqs. 3–4).
func (s *state) attrLogLikelihood() float64 {
	var ll float64
	for _, a := range s.attrs {
		switch s.net.Attr(a).Kind {
		case hin.Categorical:
			beta := s.cat[a].Beta
			for v := 0; v < s.net.NumObjects(); v++ {
				tcs := s.net.TermCounts(a, v)
				if len(tcs) == 0 {
					continue
				}
				th := s.theta[v]
				for _, tc := range tcs {
					var p float64
					for k := range th {
						p += th[k] * beta[k][tc.Term]
					}
					if p > 0 {
						ll += tc.Count * math.Log(p)
					} else {
						ll += tc.Count * math.Log(s.opts.Epsilon)
					}
				}
			}
		case hin.Numeric:
			gp := s.gauss[a]
			for v := 0; v < s.net.NumObjects(); v++ {
				xs := s.net.NumericObs(a, v)
				if len(xs) == 0 {
					continue
				}
				th := s.theta[v]
				for _, x := range xs {
					// Log-space mixture for numerical stability.
					maxLog := math.Inf(-1)
					logs := make([]float64, len(th))
					for k := range th {
						g := stats.Gaussian{Mu: gp.Mu[k], Sigma: math.Sqrt(gp.Var[k])}
						logs[k] = math.Log(th[k]) + g.LogPDF(x)
						if logs[k] > maxLog {
							maxLog = logs[k]
						}
					}
					var sum float64
					for _, lg := range logs {
						sum += math.Exp(lg - maxLog)
					}
					ll += maxLog + math.Log(sum)
				}
			}
		}
	}
	return ll
}

// objectiveG1 is g₁(Θ, β) from Eq. 9 — the cluster-optimization objective
// with γ held fixed.
func (s *state) objectiveG1() float64 {
	return s.featureSum(s.gamma) + s.attrLogLikelihood()
}
