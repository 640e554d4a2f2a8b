package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method of Python's statistics.quantiles).
// It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// tally counts one phase's operations: every SDK call and every
// correctness check is attempted once and either succeeds or fails. A
// transport error, a non-2xx response (429 included) and a failed check
// all count as failed.
type tally struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// ledger is the per-phase failure accounting of one run, plus the first
// few failure messages for the report.
type ledger struct {
	mu     sync.Mutex
	phases map[string]*tally
	errs   []string
}

func newLedger() *ledger { return &ledger{phases: make(map[string]*tally)} }

// note records one attempted operation of the phase; a non-nil err is a
// failure and is kept (up to a small cap) for the report.
func (l *ledger) note(phase string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.phases[phase]
	if !ok {
		t = &tally{}
		l.phases[phase] = t
	}
	t.Attempted++
	if err == nil {
		t.Succeeded++
		return
	}
	t.Failed++
	if len(l.errs) < 20 {
		l.errs = append(l.errs, phase+": "+err.Error())
	}
}

func (l *ledger) totals() tally {
	l.mu.Lock()
	defer l.mu.Unlock()
	var sum tally
	for _, t := range l.phases {
		sum.Attempted += t.Attempted
		sum.Succeeded += t.Succeeded
		sum.Failed += t.Failed
	}
	return sum
}
