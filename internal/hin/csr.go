package hin

import "slices"

// inLinkIndex is the in-link view of a network's canonical edge list: entry
// j of object v (j in start[v]:start[v+1]) stores the source object
// from[j], relation rel[j] and weight weight[j] of one incoming link, in
// edge order — i.e. sorted by (From, Rel, To, Weight) within each target.
// Only symmetric propagation and the baselines read it, so it is built on
// first use and immutable afterwards.
type inLinkIndex struct {
	start  []int // NumObjects+1 offsets by target
	from   []int
	rel    []int
	weight []float64
}

// PrepareCSR builds the in-link index if it does not exist yet. It is
// idempotent and safe for concurrent use; InLinks and InLinkArrays call it
// implicitly. Nothing else needs it: the out-links are the edge list
// itself.
func (n *Network) PrepareCSR() {
	n.inOnce.Do(func() { n.in = n.buildInLinks() })
}

// buildInLinks scatters the edge list into per-target rows with one
// next-free-slot cursor per target, so each row inherits the edge order.
func (n *Network) buildInLinks() *inLinkIndex {
	nObj := len(n.objects)
	in := &inLinkIndex{
		start:  make([]int, nObj+1),
		from:   make([]int, len(n.edges)),
		rel:    make([]int, len(n.edges)),
		weight: make([]float64, len(n.edges)),
	}
	for _, e := range n.edges {
		in.start[e.To+1]++
	}
	for v := 0; v < nObj; v++ {
		in.start[v+1] += in.start[v]
	}
	next := slices.Clone(in.start[:nObj])
	for _, e := range n.edges {
		j := next[e.To]
		in.from[j], in.rel[j], in.weight[j] = e.From, e.Rel, e.Weight
		next[e.To]++
	}
	return in
}

// InLinks returns the incoming links of object v as parallel subslices
// (source object, relation id, weight), ordered by (source, relation) — the
// edge order. Shared; callers must not mutate.
func (n *Network) InLinks(v int) (from, rel []int, weight []float64) {
	n.PrepareCSR()
	lo, hi := n.in.start[v], n.in.start[v+1]
	return n.in.from[lo:hi], n.in.rel[lo:hi], n.in.weight[lo:hi]
}

// InLinkArrays exposes the full in-link index for hot loops: start has
// NumObjects+1 offsets, and from/rel/weight describe each incoming link in
// edge order. Shared; callers must not mutate.
func (n *Network) InLinkArrays() (start, from, rel []int, weight []float64) {
	n.PrepareCSR()
	return n.in.start, n.in.from, n.in.rel, n.in.weight
}
