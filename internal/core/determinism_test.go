package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"genclus/internal/hin"
)

// mixedNetwork builds a network big enough to span several EM reduction
// chunks (> emChunkSize objects), with both a categorical and a numeric
// attribute so every accumulator kind participates in the merge.
func mixedNetwork(t *testing.T, perTopic int, seed int64) *hin.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 40})
	b.DeclareAttribute(hin.AttrSpec{Name: "score", Kind: hin.Numeric})
	n := 2 * perTopic
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = "o" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
		b.AddObject(ids[i], "doc")
		topic := i / perTopic
		for w := 0; w < 8; w++ {
			b.AddTermCount(ids[i], "text", topic*20+rng.Intn(20), 1)
		}
		// Attribute incompleteness: only a third of the objects carry the
		// numeric attribute.
		if i%3 == 0 {
			b.AddNumeric(ids[i], "score", float64(topic*10)+rng.NormFloat64())
		}
	}
	for i := 0; i < n; i++ {
		topic := i / perTopic
		for c := 0; c < 3; c++ {
			j := topic*perTopic + rng.Intn(perTopic)
			if j != i {
				b.AddLink(ids[i], ids[j], "cites", 1)
			}
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestFitDeterministicAcrossParallelism is the golden guarantee the server
// relies on: the same seed must produce bitwise-identical fits regardless
// of the worker count, because the β-statistics reduction runs over fixed
// emChunkSize chunks merged in chunk order (see emIteration). A regression
// here means the accumulator-merge order leaked the parallelism level into
// the floating point summation tree.
func TestFitDeterministicAcrossParallelism(t *testing.T) {
	net := mixedNetwork(t, 700, 11) // 1400 objects → 3 reduction chunks

	opts := DefaultOptions(2)
	opts.Seed = 42
	opts.OuterIters = 3
	opts.EMIters = 5

	opts.Parallelism = 1
	serial, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 8
	parallel, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}

	sl, pl := serial.HardLabels(), parallel.HardLabels()
	for v := range sl {
		if sl[v] != pl[v] {
			t.Fatalf("cluster assignment of object %d differs: %d (serial) vs %d (parallel)", v, sl[v], pl[v])
		}
	}
	for v := range serial.Theta {
		for k, x := range serial.Theta[v] {
			if parallel.Theta[v][k] != x {
				t.Fatalf("θ[%d][%d] differs: %v vs %v", v, k, x, parallel.Theta[v][k])
			}
		}
	}
	for r, g := range serial.GammaVec {
		if parallel.GammaVec[r] != g {
			t.Fatalf("γ[%d] differs: %v (serial) vs %v (parallel)", r, g, parallel.GammaVec[r])
		}
	}
	for i, am := range serial.Attrs {
		pm := parallel.Attrs[i]
		switch am.Kind {
		case hin.Categorical:
			for k, row := range am.Cat.Beta {
				for l, x := range row {
					if pm.Cat.Beta[k][l] != x {
						t.Fatalf("β[%s][%d][%d] differs: %v vs %v", am.Name, k, l, x, pm.Cat.Beta[k][l])
					}
				}
			}
		case hin.Numeric:
			for k := range am.Gauss.Mu {
				if pm.Gauss.Mu[k] != am.Gauss.Mu[k] || pm.Gauss.Var[k] != am.Gauss.Var[k] {
					t.Fatalf("gaussian β[%s][%d] differs: (%v,%v) vs (%v,%v)",
						am.Name, k, am.Gauss.Mu[k], am.Gauss.Var[k], pm.Gauss.Mu[k], pm.Gauss.Var[k])
				}
			}
		}
	}
}

// fitChecksum digests every fitted quantity of a Result bit for bit
// (FNV-1a over the IEEE-754 representations), so two fits compare equal
// exactly when they are bitwise identical.
func fitChecksum(res *Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	f := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for _, row := range res.Theta {
		for _, x := range row {
			f(x)
		}
	}
	for _, g := range res.GammaVec {
		f(g)
	}
	for _, am := range res.Attrs {
		switch am.Kind {
		case hin.Categorical:
			for _, row := range am.Cat.Beta {
				for _, x := range row {
					f(x)
				}
			}
		case hin.Numeric:
			for _, x := range am.Gauss.Mu {
				f(x)
			}
			for _, x := range am.Gauss.Var {
				f(x)
			}
		}
	}
	f(res.Objective)
	f(res.PseudoLL)
	f(float64(res.EMIterations))
	return h.Sum64()
}

// interleavedNetwork builds a two-relation network whose in-links
// interleave relations (objects receive "cites" and "refs" links from
// alternating sources), exercising the symmetric-propagation summation
// order — the one EM path that walks the in-link index as well as each
// object's out-edges.
func interleavedNetwork(tb testing.TB, perTopic int, seed int64) *hin.Network {
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 60})
	b.DeclareAttribute(hin.AttrSpec{Name: "score", Kind: hin.Numeric})
	n := 3 * perTopic
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("x%04d", i)
		b.AddObject(ids[i], "doc")
		topic := i / perTopic
		for w := 0; w < 5; w++ {
			b.AddTermCount(ids[i], "text", topic*20+rng.Intn(20), 1)
		}
		if i%4 == 0 {
			b.AddNumeric(ids[i], "score", float64(topic*8)+rng.NormFloat64())
		}
	}
	for i := 0; i < n; i++ {
		topic := i / perTopic
		for c := 0; c < 2; c++ {
			j := topic*perTopic + rng.Intn(perTopic)
			if j != i {
				b.AddLink(ids[i], ids[j], "cites", 1)
			}
			j = topic*perTopic + rng.Intn(perTopic)
			if j != i {
				b.AddLink(ids[i], ids[j], "refs", 0.7)
			}
		}
	}
	net, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// Golden checksums captured from the pre-CSR implementation (PR 2, commit
// 048ba35) on the exact fits below, on linux/amd64. Every later link
// layout and the zero-allocation EM scratch were introduced under the contract
// that they change neither an operand nor the summation order of any
// floating-point reduction, so on the capture architecture these digests
// must never move — across code changes AND across Parallelism settings.
// If a change legitimately needs to alter the arithmetic (a new reduction
// shape, a different feature function), that is a determinism-contract
// change: call it out in docs/ARCHITECTURE.md and re-capture the constants
// in the same commit.
//
// The constants are only asserted on amd64: architectures with fused
// multiply-add (arm64, ppc64, s390x) contract `a += b*c` into FMA, which
// legitimately produces different low-order bits for the same code. The
// cross-Parallelism bitwise comparison below still runs everywhere — the
// determinism contract is per-binary, the golden pin is per-architecture.
const (
	goldenChecksumArch      = "amd64"
	goldenPlainChecksum     = 0x728637d2d1a07a0e
	goldenSymmetricChecksum = 0xf4560d9951a246b0
)

// TestFitGoldenBitwiseChecksum pins the fits to the recorded
// pre-CSR results, bit for bit, at every Parallelism level — the plain
// (out-link) path on the multi-chunk mixed network, and the symmetric
// propagation path on a multi-relation network with interleaved in-links.
// On non-amd64 hosts it still requires bitwise identity across
// Parallelism, just not the amd64 golden constants.
func TestFitGoldenBitwiseChecksum(t *testing.T) {
	pinGolden := runtime.GOARCH == goldenChecksumArch
	if !pinGolden {
		t.Logf("GOARCH=%s: skipping the %s golden constants (FMA contraction changes low-order bits); still requiring cross-Parallelism identity", runtime.GOARCH, goldenChecksumArch)
	}
	check := func(name string, golden uint64, fit func(parallelism int) *Result, pars []int) {
		var first uint64
		for i, par := range pars {
			got := fitChecksum(fit(par))
			if i == 0 {
				first = got
			} else if got != first {
				t.Errorf("%s fit checksum differs across Parallelism (%#x at %d vs %#x at %d)", name, got, par, first, pars[0])
			}
			if pinGolden && got != golden {
				t.Errorf("%s fit (Parallelism=%d) checksum %#x, want golden %#x — the floating-point summation tree changed", name, par, got, golden)
			}
		}
	}

	plain := mixedNetwork(t, 700, 11)
	popts := DefaultOptions(2)
	popts.Seed = 42
	popts.OuterIters = 3
	popts.EMIters = 5
	check("plain", goldenPlainChecksum, func(par int) *Result {
		popts.Parallelism = par
		res, err := Fit(plain, popts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Result
	}, []int{1, 4})

	sym := interleavedNetwork(t, 300, 17)
	sopts := DefaultOptions(3)
	sopts.Seed = 5
	sopts.OuterIters = 3
	sopts.EMIters = 4
	sopts.SymmetricPropagation = true
	check("symmetric", goldenSymmetricChecksum, func(par int) *Result {
		sopts.Parallelism = par
		res, err := Fit(sym, sopts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Result
	}, []int{1, 2})
}

// TestFitSurvivesExtremeNumeric: observations near ±MaxFloat64 overflow
// the pooled variance to +Inf and NaN every candidate's objective — the
// best-of-seeds selection must still return a state (not nil) and Fit must
// not panic, because genclusd feeds untrusted networks through here.
func TestFitSurvivesExtremeNumeric(t *testing.T) {
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "x", Kind: hin.Numeric})
	b.AddObject("a", "t")
	b.AddObject("c", "t")
	b.AddNumeric("a", "x", 1e308)
	b.AddNumeric("c", "x", -1e308)
	b.AddLink("a", "c", "r", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(2)
	opts.OuterIters = 2
	opts.EMIters = 2
	if _, err := Fit(net, opts); err != nil {
		t.Fatalf("Fit returned error (a result, even a degenerate one, is fine; a panic is not): %v", err)
	}
}

func TestFitContextPreCancelled(t *testing.T) {
	net := mixedNetwork(t, 30, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FitContext(ctx, net, DefaultOptions(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFitContextCancelMidFit cancels from the Progress hook once the fit is
// demonstrably underway, and requires the fit to abandon work promptly
// rather than finish its (otherwise very long) schedule.
func TestFitContextCancelMidFit(t *testing.T) {
	net := mixedNetwork(t, 200, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	opts := DefaultOptions(2)
	opts.OuterIters = 100000 // would run for minutes if the cancel leaked
	opts.EMIters = 50
	opts.Progress = func(p Progress) {
		if p.Outer >= 1 {
			cancel()
		}
	}

	start := time.Now()
	_, err := FitContext(ctx, net, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled fit took %v", elapsed)
	}
}

func TestFitProgressReports(t *testing.T) {
	net := mixedNetwork(t, 30, 9)
	opts := DefaultOptions(2)
	opts.OuterIters = 4
	var got []Progress
	opts.Progress = func(p Progress) { got = append(got, p) }
	if _, err := Fit(net, opts); err != nil {
		t.Fatal(err)
	}
	if len(got) != opts.OuterIters+1 {
		t.Fatalf("got %d progress reports, want %d", len(got), opts.OuterIters+1)
	}
	for i, p := range got {
		if p.Outer != i || p.OuterTotal != opts.OuterIters {
			t.Fatalf("report %d = %+v", i, p)
		}
	}
}
