package core

import (
	"math"

	"genclus/internal/linalg"
	"genclus/internal/mathx"
)

// strengthStats holds the per-object, per-relation aggregates the
// pseudo-likelihood g′₂ (Eq. 14) and its derivatives (Eqs. 16–17) are built
// from. With Θ fixed they are constants of the Newton iteration:
//
//	S_i^{(r)}   = Σ_{e=<i,j>, φ(e)=r} w(e)                  (weight mass)
//	Sik^{(r)}   = Σ_{e=<i,j>, φ(e)=r} w(e)·θ_{j,k}          (α contributions)
//	F_i^{(r)}   = Σ_{e=<i,j>, φ(e)=r} w(e)·Σ_k θ_{j,k}·ln θ_{i,k}
//
// so that α_{ik}(γ) = Σ_r γ_r·Sik^{(r)} + 1 and the feature sum restricted
// to relation r is Σ_i γ_r·F_i^{(r)}.
type strengthStats struct {
	nRel, k int
	objs    []int     // objects with ≥ 1 out-link (others contribute nothing)
	s       []float64 // len(objs)×nRel
	sik     []float64 // len(objs)×nRel×k
	f       []float64 // len(objs)×nRel

	logTheta []float64 // k-sized fill scratch
}

// buildStrengthStats (re)fills the state's reusable strength statistics
// from the current Θ. The aggregate arrays are sized once per fit — their
// shape depends only on the immutable network and K — and zeroed on reuse,
// so the per-outer-iteration strength step allocates nothing in steady
// state. Each object's links are walked in stored (relation, target)
// order.
func (s *state) buildStrengthStats() *strengthStats {
	st := &s.strength
	if !s.strengthReady {
		nRel := s.net.NumRelations()
		k := s.opts.K
		var objs []int
		for v := 0; v < s.net.NumObjects(); v++ {
			if s.net.OutDegree(v) > 0 {
				objs = append(objs, v)
			}
		}
		st.nRel, st.k = nRel, k
		st.objs = objs
		st.s = make([]float64, len(objs)*nRel)
		st.sik = make([]float64, len(objs)*nRel*k)
		st.f = make([]float64, len(objs)*nRel)
		st.logTheta = make([]float64, k)
		s.strengthReady = true
	} else {
		clear(st.s)
		clear(st.sik)
		clear(st.f)
	}

	nRel, k := st.nRel, st.k
	logTheta := st.logTheta
	for oi, v := range st.objs {
		ti := s.theta[v]
		for c := 0; c < k; c++ {
			logTheta[c] = math.Log(ti[c])
		}
		for _, e := range s.net.OutEdges(v) {
			ir := oi*nRel + e.Rel
			base := ir * k
			w := e.Weight
			tj := s.theta[e.To]
			var ce float64
			for c := 0; c < k; c++ {
				st.sik[base+c] += w * tj[c]
				ce += tj[c] * logTheta[c]
			}
			st.s[ir] += w
			st.f[ir] += w * ce
		}
	}
	return st
}

// pseudoLogLikelihood evaluates g′₂(γ) (Eq. 14):
//
//	g′₂(γ) = Σ_i ( Σ_r γ_r·F_i^{(r)} − ln B(α_i(γ)) ) − ‖γ‖²/(2σ²).
func (st *strengthStats) pseudoLogLikelihood(gamma []float64, priorSigma float64) float64 {
	k := st.k
	alpha := make([]float64, k)
	var g2 float64
	for oi := range st.objs {
		for c := 0; c < k; c++ {
			alpha[c] = 1
		}
		for r := 0; r < st.nRel; r++ {
			gr := gamma[r]
			if gr == 0 {
				continue
			}
			g2 += gr * st.f[oi*st.nRel+r]
			base := (oi*st.nRel + r) * k
			for c := 0; c < k; c++ {
				alpha[c] += gr * st.sik[base+c]
			}
		}
		g2 -= mathx.LogBeta(alpha)
	}
	var norm2 float64
	for _, g := range gamma {
		norm2 += g * g
	}
	return g2 - norm2/(2*priorSigma*priorSigma)
}

// gradHess evaluates ∇g′₂ (Eq. 16) and the Hessian Hg′₂ (Eq. 17) at γ.
func (st *strengthStats) gradHess(gamma []float64, priorSigma float64) (grad []float64, hess *linalg.Matrix) {
	nRel, k := st.nRel, st.k
	grad = make([]float64, nRel)
	hess = linalg.NewMatrix(nRel, nRel)
	alpha := make([]float64, k)
	psiA := make([]float64, k)
	psi1A := make([]float64, k)

	for oi := range st.objs {
		var alpha0 float64
		for c := 0; c < k; c++ {
			alpha[c] = 1
		}
		for r := 0; r < nRel; r++ {
			gr := gamma[r]
			if gr == 0 {
				continue
			}
			base := (oi*nRel + r) * k
			for c := 0; c < k; c++ {
				alpha[c] += gr * st.sik[base+c]
			}
		}
		for c := 0; c < k; c++ {
			alpha0 += alpha[c]
			psiA[c] = mathx.Digamma(alpha[c])
			psi1A[c] = mathx.Trigamma(alpha[c])
		}
		psiA0 := mathx.Digamma(alpha0)
		psi1A0 := mathx.Trigamma(alpha0)

		for r1 := 0; r1 < nRel; r1++ {
			s1 := st.s[oi*nRel+r1]
			if s1 == 0 {
				continue
			}
			base1 := (oi*nRel + r1) * k
			// Gradient: F_i^{(r)} − Σ_k ψ(α_ik)·Sik^{(r)} + ψ(α_i0)·S_i^{(r)}.
			g := st.f[oi*nRel+r1] + psiA0*s1
			for c := 0; c < k; c++ {
				g -= psiA[c] * st.sik[base1+c]
			}
			grad[r1] += g
			// Hessian row.
			for r2 := r1; r2 < nRel; r2++ {
				s2 := st.s[oi*nRel+r2]
				if s2 == 0 {
					continue
				}
				base2 := (oi*nRel + r2) * k
				h := psi1A0 * s1 * s2
				for c := 0; c < k; c++ {
					h -= psi1A[c] * st.sik[base1+c] * st.sik[base2+c]
				}
				hess.Add(r1, r2, h)
				if r2 != r1 {
					hess.Add(r2, r1, h)
				}
			}
		}
	}
	inv := 1 / (priorSigma * priorSigma)
	for r := 0; r < nRel; r++ {
		grad[r] -= gamma[r] * inv
		hess.Add(r, r, -inv)
	}
	return grad, hess
}

// learnStrengths runs the safeguarded Newton–Raphson iteration of §4.2 with
// the γ ≥ 0 projection from Algorithm 1. It returns the achieved g′₂.
func (s *state) learnStrengths() float64 {
	st := s.buildStrengthStats()
	sigma := s.opts.PriorSigma
	gamma := s.gamma
	cur := st.pseudoLogLikelihood(gamma, sigma)

	for it := 0; it < s.opts.NewtonIters; it++ {
		grad, hess := st.gradHess(gamma, sigma)
		// Newton direction Δ solves H·Δ = ∇; the step is γ − Δ. H is
		// negative definite (Appendix B), so −H is SPD and Cholesky is the
		// natural factorization — it also asserts definiteness for free.
		delta := newtonDirection(grad, hess)
		// Backtracking line search on the Newton step, projecting onto the
		// feasible set γ ≥ 0 at every trial point.
		step := 1.0
		improved := false
		var trial []float64
		for ls := 0; ls < 40; ls++ {
			trial = make([]float64, len(gamma))
			for r := range gamma {
				trial[r] = gamma[r] - step*delta[r]
				if trial[r] < 0 {
					trial[r] = 0
				}
			}
			val := st.pseudoLogLikelihood(trial, sigma)
			if val >= cur {
				maxMove := 0.0
				for r := range gamma {
					if d := math.Abs(trial[r] - gamma[r]); d > maxMove {
						maxMove = d
					}
				}
				copy(gamma, trial)
				improvedEnough := val > cur+math.Abs(cur)*1e-12
				cur = val
				improved = true
				if maxMove < s.opts.NewtonTol || !improvedEnough {
					return cur
				}
				break
			}
			step /= 2
		}
		if !improved {
			break // no ascent along the Newton direction: converged
		}
	}
	return cur
}

// newtonDirection solves H·Δ = ∇ for the negative definite Hessian. It
// negates the system to use Cholesky on the SPD −H; if rounding has
// destroyed definiteness it retries with LU, and as a last resort falls
// back to a small gradient step so the line search can still make progress.
func newtonDirection(grad []float64, hess *linalg.Matrix) []float64 {
	neg := hess.Clone().Scale(-1)
	if x, err := linalg.SolveSPD(neg, grad); err == nil {
		for i := range x {
			x[i] = -x[i]
		}
		return x
	}
	if x, err := linalg.Solve(hess, grad); err == nil {
		return x
	}
	delta := make([]float64, len(grad))
	for r := range grad {
		delta[r] = -1e-3 * grad[r]
	}
	return delta
}
