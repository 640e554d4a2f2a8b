package hin

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
)

// Delta is a change to a Network in dense-index form, the input of
// Network.Splice. Object indices at or past the parent's NumObjects name
// the delta's own Objects in order; relation indices at or past its
// NumRelations name the delta's Relations in order.
type Delta struct {
	// Objects are appended after the parent's objects. IDs must be new.
	Objects []Object
	// Relations are appended after the parent's relations. Names must be
	// new.
	Relations []string
	// Add holds the links to add, with positive finite weights.
	Add []Edge
	// Remove names parent links by (From, Rel, To). Each key removes every
	// parallel parent link it matches and must match at least one.
	Remove []LinkKey
	// Obs replaces per-object attribute observations, at most one patch
	// per (object, attribute).
	Obs []ObsPatch
}

// LinkKey names the parallel links from one object to another under one
// relation.
type LinkKey struct {
	From, Rel, To int // dense source object, relation and target object
}

// ObsPatch replaces the observation of attribute Attr on object Object:
// Terms for a categorical attribute, whose counts for a repeated term are
// summed in order as Builder.AddTermCount does, or Values for a numeric
// one. A patch with neither clears the observation.
type ObsPatch struct {
	Object int         // dense object index
	Attr   int         // dense attribute index
	Terms  []TermCount // categorical observation
	Values []float64   // numeric observation
}

// compareEdges is the canonical edge order, (From, Rel, To, Weight). It is
// total over valid edges, so the sorted edge list does not depend on the
// order links were added in, parallel links included.
func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Rel, b.Rel); c != 0 {
		return c
	}
	if c := cmp.Compare(a.To, b.To); c != 0 {
		return c
	}
	return cmp.Compare(a.Weight, b.Weight)
}

// outOffsets returns the offsets of canonically sorted edges by source:
// object v's out-links are edges[start[v]:start[v+1]].
func outOffsets(edges []Edge, nObj int) []int {
	start := make([]int, nObj+1)
	for _, e := range edges {
		start[e.From+1]++
	}
	for v := 0; v < nObj; v++ {
		start[v+1] += start[v]
	}
	return start
}

// Splice returns the next generation of n: the network a Builder would
// build from n's content changed by d, equal in every stored field. n is
// never modified, and no in-link index is built for the child until one is
// asked for.
//
// The splice copies only what d touches: the edge list and its offsets,
// and the observation rows of each patched attribute. Everything else is
// shared with n: the objects and the ID and type indexes unless d appends
// objects, the relation table unless d appends relations, the attribute
// table, and every untouched attribute. Shared slices are never appended
// to, so any number of children may be spliced from one parent.
func (n *Network) Splice(d *Delta) (*Network, error) {
	if err := n.checkDelta(d); err != nil {
		return nil, err
	}
	c := &Network{
		objects:   n.objects,
		idIndex:   n.idIndex,
		typeIndex: n.typeIndex,
		relations: n.relations,
		relIndex:  n.relIndex,
		edges:     n.edges,
		outStart:  n.outStart,
		attrs:     n.attrs,
		attrIndex: n.attrIndex,
		catObs:    n.catObs,
		numObs:    n.numObs,
	}
	if len(d.Objects) > 0 {
		c.appendObjects(d.Objects)
	}
	if len(d.Relations) > 0 {
		base := len(c.relations)
		c.relations = append(c.relations[:base:base], d.Relations...)
		c.relIndex = maps.Clone(c.relIndex)
		for i, name := range d.Relations {
			c.relIndex[name] = base + i
		}
	}
	edgesChanged := len(d.Add) > 0 || len(d.Remove) > 0
	if edgesChanged {
		c.edges = n.spliceEdges(d.Add, d.Remove)
	}
	if edgesChanged || len(d.Objects) > 0 {
		c.outStart = outOffsets(c.edges, len(c.objects))
	}
	if len(d.Obs) > 0 || len(d.Objects) > 0 {
		c.catObs, c.numObs = n.spliceObs(len(c.objects), d.Obs)
	}
	return c, nil
}

// objectID names object v of n's child under d, for error messages.
func (n *Network) objectID(d *Delta, v int) string {
	if v < len(n.objects) {
		return n.objects[v].ID
	}
	return d.Objects[v-len(n.objects)].ID
}

// checkDelta validates d against n with the rules Builder enforces, so a
// splice never produces a network Build would reject.
func (n *Network) checkDelta(d *Delta) error {
	nObj := len(n.objects) + len(d.Objects)
	nRel := len(n.relations) + len(d.Relations)
	var added, newRel map[string]bool
	if len(d.Objects) > 0 {
		added = make(map[string]bool, len(d.Objects))
	}
	for _, o := range d.Objects {
		if o.ID == "" || o.Type == "" {
			return fmt.Errorf("hin: object needs non-empty id and type (id=%q type=%q)", o.ID, o.Type)
		}
		if _, ok := n.idIndex[o.ID]; ok || added[o.ID] {
			return fmt.Errorf("hin: object %q already exists", o.ID)
		}
		added[o.ID] = true
	}
	if len(d.Relations) > 0 {
		newRel = make(map[string]bool, len(d.Relations))
	}
	for _, name := range d.Relations {
		if name == "" {
			return fmt.Errorf("hin: empty relation name")
		}
		if _, ok := n.relIndex[name]; ok || newRel[name] {
			return fmt.Errorf("hin: relation %q already exists", name)
		}
		newRel[name] = true
	}
	for _, e := range d.Add {
		if e.From < 0 || e.From >= nObj || e.To < 0 || e.To >= nObj || e.Rel < 0 || e.Rel >= nRel {
			return fmt.Errorf("hin: link (%d -[%d]-> %d) out of range", e.From, e.Rel, e.To)
		}
		if !(e.Weight > 0) || math.IsInf(e.Weight, 0) {
			return fmt.Errorf("hin: link %s -> %s has invalid weight %v (must be positive finite)",
				n.objectID(d, e.From), n.objectID(d, e.To), e.Weight)
		}
	}
	for _, k := range d.Remove {
		if k.From < 0 || k.From >= len(n.objects) || k.To < 0 || k.To >= len(n.objects) || k.Rel < 0 || k.Rel >= len(n.relations) {
			return fmt.Errorf("hin: removed link (%d -[%d]-> %d) out of range", k.From, k.Rel, k.To)
		}
		if lo, hi := n.linkRange(k); lo == hi {
			return fmt.Errorf("hin: no link %s -[%s]-> %s to remove",
				n.objects[k.From].ID, n.relations[k.Rel], n.objects[k.To].ID)
		}
	}
	var patched map[[2]int]bool
	if len(d.Obs) > 0 {
		patched = make(map[[2]int]bool, len(d.Obs))
	}
	for _, p := range d.Obs {
		if p.Object < 0 || p.Object >= nObj || p.Attr < 0 || p.Attr >= len(n.attrs) {
			return fmt.Errorf("hin: observation (object %d, attribute %d) out of range", p.Object, p.Attr)
		}
		id, spec := n.objectID(d, p.Object), n.attrs[p.Attr]
		if patched[[2]int{p.Object, p.Attr}] {
			return fmt.Errorf("hin: object %q: attribute %q patched twice", id, spec.Name)
		}
		patched[[2]int{p.Object, p.Attr}] = true
		if spec.Kind == Numeric && len(p.Terms) > 0 {
			return fmt.Errorf("hin: object %q: term observation on numeric attribute %q", id, spec.Name)
		}
		if spec.Kind == Categorical && len(p.Values) > 0 {
			return fmt.Errorf("hin: object %q: numeric observation on categorical attribute %q", id, spec.Name)
		}
		for _, tc := range p.Terms {
			if tc.Term < 0 || tc.Term >= spec.VocabSize {
				return fmt.Errorf("hin: object %q: term %d outside vocabulary of %q (size %d)", id, tc.Term, spec.Name, spec.VocabSize)
			}
			if !(tc.Count > 0) || math.IsInf(tc.Count, 0) {
				return fmt.Errorf("hin: object %q: term count must be positive finite, got %v", id, tc.Count)
			}
		}
		for _, x := range p.Values {
			if math.IsInf(x, 0) || math.IsNaN(x) {
				return fmt.Errorf("hin: object %q: numeric observation must be finite, got %v", id, x)
			}
		}
	}
	return nil
}

// linkRange returns the half-open range of n.edges holding the links k
// names (empty when there are none).
func (n *Network) linkRange(k LinkKey) (lo, hi int) {
	lo, hi = n.outStart[k.From], n.outStart[k.From+1]
	row := n.edges[lo:hi]
	i := sort.Search(len(row), func(i int) bool {
		return row[i].Rel > k.Rel || (row[i].Rel == k.Rel && row[i].To >= k.To)
	})
	j := i
	for j < len(row) && row[j].Rel == k.Rel && row[j].To == k.To {
		j++
	}
	return lo + i, lo + j
}

// appendObjects gives c its own object table and ID and type indexes with
// objs appended; type lists that gain no object stay shared.
func (c *Network) appendObjects(objs []Object) {
	base := len(c.objects)
	c.objects = append(c.objects[:base:base], objs...)
	c.idIndex = maps.Clone(c.idIndex)
	c.typeIndex = maps.Clone(c.typeIndex)
	owned := make(map[string]bool)
	for i, o := range objs {
		c.idIndex[o.ID] = base + i
		vs := c.typeIndex[o.Type]
		if !owned[o.Type] {
			vs = vs[:len(vs):len(vs)] // the parent's list: append must copy
			owned[o.Type] = true
		}
		c.typeIndex[o.Type] = append(vs, base+i)
	}
}

// spliceEdges returns a new canonically sorted edge list: n's edges minus
// every link remove names, merged with add. Both the kept runs of n's list
// and the insertions are placed by binary search and block copies.
func (n *Network) spliceEdges(add []Edge, remove []LinkKey) []Edge {
	type span struct{ lo, hi int }
	cuts := make([]span, 0, len(remove))
	for _, k := range remove {
		lo, hi := n.linkRange(k)
		cuts = append(cuts, span{lo, hi})
	}
	slices.SortFunc(cuts, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	cuts = slices.Compact(cuts) // a key named twice cuts one range
	removed := 0
	for _, s := range cuts {
		removed += s.hi - s.lo
	}
	ins := slices.Clone(add)
	slices.SortFunc(ins, compareEdges)

	old := n.edges
	out := make([]Edge, 0, len(old)-removed+len(ins))
	at := 0 // old[:at] is emitted or cut
	copyTo := func(p int) {
		if p > at {
			out = append(out, old[at:p]...)
			at = p
		}
	}
	cut := func(s span) {
		copyTo(s.lo)
		at = max(at, s.hi)
	}
	for _, e := range ins {
		p := sort.Search(len(old), func(i int) bool { return compareEdges(old[i], e) > 0 })
		for len(cuts) > 0 && cuts[0].lo <= p {
			cut(cuts[0])
			cuts = cuts[1:]
		}
		copyTo(p)
		out = append(out, e)
	}
	for _, s := range cuts {
		cut(s)
	}
	copyTo(len(old))
	return out
}

// spliceObs returns observation tables for a child with nObj objects and
// the patches applied. Attributes without a patch share n's row tables
// unless objects were appended, in which case the table is copied and
// extended with empty rows.
func (n *Network) spliceObs(nObj int, patches []ObsPatch) (cat [][][]TermCount, num [][][]float64) {
	cat = make([][][]TermCount, len(n.attrs))
	num = make([][][]float64, len(n.attrs))
	touched := make([]bool, len(n.attrs))
	for _, p := range patches {
		touched[p.Attr] = true
	}
	for a, spec := range n.attrs {
		switch spec.Kind {
		case Categorical:
			cat[a] = ownRows(n.catObs[a], nObj, touched[a])
		case Numeric:
			num[a] = ownRows(n.numObs[a], nObj, touched[a])
		}
	}
	for _, p := range patches {
		switch n.attrs[p.Attr].Kind {
		case Categorical:
			cat[p.Attr][p.Object] = freezeTerms(p.Terms)
		case Numeric:
			var xs []float64
			if len(p.Values) > 0 {
				xs = slices.Clone(p.Values)
			}
			num[p.Attr][p.Object] = xs
		}
	}
	return cat, num
}

// ownRows returns rows unchanged when it already has nObj rows and the
// caller will not write to it, and otherwise a copy with nObj rows.
func ownRows[T any](rows [][]T, nObj int, write bool) [][]T {
	if !write && len(rows) == nObj {
		return rows
	}
	out := make([][]T, nObj)
	copy(out, rows)
	return out
}

// freezeTerms stores a categorical observation as Build does: one entry per
// term, ascending, each count summed in input order; nil when empty.
func freezeTerms(tcs []TermCount) []TermCount {
	if len(tcs) == 0 {
		return nil
	}
	out := slices.Clone(tcs)
	slices.SortStableFunc(out, func(a, b TermCount) int { return cmp.Compare(a.Term, b.Term) })
	w := 0
	for _, tc := range out[1:] {
		if tc.Term == out[w].Term {
			out[w].Count += tc.Count
			continue
		}
		w++
		out[w] = tc
	}
	return out[:w+1]
}
