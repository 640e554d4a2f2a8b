package deltalog

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"genclus/internal/hin"
)

// content is a network's definition in mutation vocabulary — the oracle
// side of the Apply ≡ from-scratch-build contract. It applies mutations
// with their documented semantics, independently of Apply, and builds the
// result from scratch through a Builder.
type content struct {
	attrs     []hin.AttrSpec
	relations []string // dense relation order, new names appended
	objects   []hin.Object
	links     []Link
	terms     map[string]map[string][]TermCount // object → attribute → entries
	numeric   map[string]map[string][]float64
}

func contentOf(n *hin.Network) *content {
	c := &content{
		attrs:     slices.Clone(n.Attrs()),
		relations: slices.Clone(n.Relations()),
		terms:     make(map[string]map[string][]TermCount),
		numeric:   make(map[string]map[string][]float64),
	}
	for v := 0; v < n.NumObjects(); v++ {
		c.objects = append(c.objects, n.Object(v))
	}
	for _, e := range n.Edges() {
		c.links = append(c.links, Link{From: n.Object(e.From).ID, To: n.Object(e.To).ID, Relation: n.RelationName(e.Rel), Weight: e.Weight})
	}
	for a, spec := range n.Attrs() {
		for v := 0; v < n.NumObjects(); v++ {
			id := n.Object(v).ID
			switch spec.Kind {
			case hin.Categorical:
				for _, tc := range n.TermCounts(a, v) {
					c.setTerms(id, spec.Name, append(c.terms[id][spec.Name], TermCount(tc)))
				}
			case hin.Numeric:
				if xs := n.NumericObs(a, v); len(xs) > 0 {
					c.setNumeric(id, spec.Name, slices.Clone(xs))
				}
			}
		}
	}
	return c
}

func (c *content) setTerms(id, attr string, tcs []TermCount) {
	if c.terms[id] == nil {
		c.terms[id] = make(map[string][]TermCount)
	}
	c.terms[id][attr] = tcs
}

func (c *content) setNumeric(id, attr string, xs []float64) {
	if c.numeric[id] == nil {
		c.numeric[id] = make(map[string][]float64)
	}
	c.numeric[id][attr] = xs
}

// setObs replaces the named attributes' observations of one object; an
// empty list clears one.
func (c *content) setObs(id string, terms map[string][]TermCount, numeric map[string][]float64) {
	for attr, tcs := range terms {
		delete(c.terms[id], attr)
		if len(tcs) > 0 {
			c.setTerms(id, attr, slices.Clone(tcs))
		}
	}
	for attr, xs := range numeric {
		delete(c.numeric[id], attr)
		if len(xs) > 0 {
			c.setNumeric(id, attr, slices.Clone(xs))
		}
	}
}

func (c *content) addLinks(links []Link) {
	for _, l := range links {
		if !slices.Contains(c.relations, l.Relation) {
			c.relations = append(c.relations, l.Relation)
		}
		c.links = append(c.links, l)
	}
}

// apply changes the content as the mutation documents: edge removal drops
// every parallel link of a triple before the adds, object adds append in
// order, attribute patches replace per (object, attribute).
func (c *content) apply(m *Mutation) {
	switch m.Op {
	case OpEdges:
		drop := make(map[EdgeRef]bool, len(m.Remove))
		for _, ref := range m.Remove {
			drop[ref] = true
		}
		kept := make([]Link, 0, len(c.links))
		for _, l := range c.links {
			if !drop[EdgeRef{From: l.From, To: l.To, Relation: l.Relation}] {
				kept = append(kept, l)
			}
		}
		c.links = kept
		c.addLinks(m.Add)
	case OpObjects:
		for _, o := range m.Objects {
			c.objects = append(c.objects, hin.Object{ID: o.ID, Type: o.Type})
			c.setObs(o.ID, o.Terms, o.Numeric)
		}
		c.addLinks(m.Links)
	case OpAttributes:
		for _, p := range m.Set {
			c.setObs(p.ID, p.Terms, p.Numeric)
		}
	}
}

// build builds the content from scratch, adding the links in an order
// drawn from rng, so the canonical edge order is exercised too.
func (c *content) build(rng *rand.Rand) (*hin.Network, error) {
	b := hin.NewBuilder()
	for _, spec := range c.attrs {
		b.DeclareAttribute(spec)
	}
	for _, name := range c.relations {
		b.Relation(name)
	}
	for _, o := range c.objects {
		b.AddObject(o.ID, o.Type)
	}
	for _, i := range rng.Perm(len(c.links)) {
		l := c.links[i]
		b.AddLink(l.From, l.To, l.Relation, l.Weight)
	}
	for id, attrs := range c.terms {
		for attr, tcs := range attrs {
			for _, tc := range tcs {
				b.AddTermCount(id, attr, tc.Term, tc.Count)
			}
		}
	}
	for id, attrs := range c.numeric {
		for attr, xs := range attrs {
			for _, x := range xs {
				b.AddNumeric(id, attr, x)
			}
		}
	}
	return b.Build()
}

// netState is a deep copy of everything a network stores that its users
// can observe: the JSON document, the relation table, every relation's
// CSR, the merged in-link view, the type lists and the ID index.
type netState struct {
	JSON      []byte
	Relations []string
	Start     [][]int
	Col       [][]int
	Weight    [][]float64
	InStart   []int
	InFrom    []int
	InRel     []int
	InWeight  []float64
	Types     map[string][]int
	Index     []int // IndexOf of each object's ID, in dense order
}

func stateOf(n *hin.Network) netState {
	own := func(xs []int) []int { return append([]int{}, xs...) }
	s := netState{Relations: append([]string{}, n.Relations()...), Types: make(map[string][]int)}
	data, err := n.MarshalJSON()
	if err != nil {
		data = []byte("marshal error: " + err.Error())
	}
	s.JSON = data
	for r := 0; r < n.NumRelations(); r++ {
		m := n.RelationCSR(r)
		s.Start = append(s.Start, own(m.Start))
		s.Col = append(s.Col, own(m.Col))
		s.Weight = append(s.Weight, append([]float64{}, m.Weight...))
	}
	start, from, rel, weight := n.InLinkArrays()
	s.InStart, s.InFrom, s.InRel, s.InWeight = own(start), own(from), own(rel), append([]float64{}, weight...)
	for _, t := range n.Types() {
		s.Types[t] = own(n.ObjectsOfType(t))
	}
	for v := 0; v < n.NumObjects(); v++ {
		i, ok := n.IndexOf(n.Object(v).ID)
		if !ok {
			i = -1
		}
		s.Index = append(s.Index, i)
	}
	return s
}

// diff names the first field in which two states differ, or returns "".
func (s netState) diff(o netState) string {
	if !bytes.Equal(s.JSON, o.JSON) {
		return fmt.Sprintf("JSON:\n got %s\nwant %s", s.JSON, o.JSON)
	}
	sv, ov := reflect.ValueOf(s), reflect.ValueOf(o)
	for i := 1; i < sv.NumField(); i++ {
		if !reflect.DeepEqual(sv.Field(i).Interface(), ov.Field(i).Interface()) {
			return fmt.Sprintf("%s: got %v, want %v", sv.Type().Field(i).Name, sv.Field(i).Interface(), ov.Field(i).Interface())
		}
	}
	return ""
}

// grownAlias reports whether child extends parent's backing array in
// place — the sign of an append into a parent's slice. A shared slice of
// equal length is a legitimate share.
func grownAlias[T any](parent, child []T) bool {
	return len(parent) > 0 && len(child) > 0 && &parent[0] == &child[0] && len(parent) != len(child)
}

// checkNoGrownAlias fails if any slice child exposes was made by
// appending into the corresponding slice of parent.
func checkNoGrownAlias(t testing.TB, parent, child *hin.Network) {
	t.Helper()
	bad := func(what string) { t.Fatalf("child %s appends into the parent's backing array", what) }
	if grownAlias(parent.Edges(), child.Edges()) {
		bad("edge list")
	}
	if grownAlias(parent.Relations(), child.Relations()) {
		bad("relation table")
	}
	for _, ty := range parent.Types() {
		if grownAlias(parent.ObjectsOfType(ty), child.ObjectsOfType(ty)) {
			bad("type list " + ty)
		}
	}
	for r := 0; r < parent.NumRelations(); r++ {
		p, c := parent.RelationCSR(r), child.RelationCSR(r)
		if grownAlias(p.Start, c.Start) || grownAlias(p.Col, c.Col) || grownAlias(p.Weight, c.Weight) {
			bad("CSR of " + parent.RelationName(r))
		}
	}
	ps, pf, pr, pw := parent.InLinkArrays()
	cs, cf, cr, cw := child.InLinkArrays()
	if grownAlias(ps, cs) || grownAlias(pf, cf) || grownAlias(pr, cr) || grownAlias(pw, cw) {
		bad("in-link view")
	}
	for a, spec := range parent.Attrs() {
		switch spec.Kind {
		case hin.Categorical:
			if grownAlias(parent.AttrTermCounts(a), child.AttrTermCounts(a)) {
				bad("observation rows of " + spec.Name)
			}
		case hin.Numeric:
			if grownAlias(parent.AttrNumericObs(a), child.AttrNumericObs(a)) {
				bad("observation rows of " + spec.Name)
			}
		}
	}
}

// checkAgainstOracle applies m to parent and, when Apply accepts it,
// compares the result with a from-scratch build of the mutated content.
// It returns the applied network and its state, or Apply's error.
func checkAgainstOracle(t testing.TB, parent *hin.Network, m *Mutation, rng *rand.Rand) (*hin.Network, netState, error) {
	t.Helper()
	got, err := Apply(parent, m)
	if err != nil {
		return nil, netState{}, err
	}
	c := contentOf(parent)
	c.apply(m)
	want, err := c.build(rng)
	if err != nil {
		t.Fatalf("Apply accepted a mutation a from-scratch build rejects: %v", err)
	}
	gs := stateOf(got)
	if d := gs.diff(stateOf(want)); d != "" {
		t.Fatalf("Apply diverges from a from-scratch build: %s", d)
	}
	checkNoGrownAlias(t, parent, got)
	return got, gs, nil
}

// randomMutation draws one valid mutation against n: any of the three ops,
// with new objects, types and relations, parallel edges of distinct
// weights, removal of parallel triples and attribute clears.
func randomMutation(t testing.TB, rng *rand.Rand, n *hin.Network, tag string) *Mutation {
	t.Helper()
	pick := func() string { return n.Object(rng.Intn(n.NumObjects())).ID }
	rel := func() string {
		if rng.Intn(8) == 0 {
			return "rel-" + tag
		}
		return n.RelationName(rng.Intn(n.NumRelations()))
	}
	weight := func() float64 { return float64(1+rng.Intn(12)) / 4 }
	link := func(from, to string) Link { return Link{From: from, To: to, Relation: rel(), Weight: weight()} }
	terms := func() []TermCount {
		var tcs []TermCount
		for i := rng.Intn(4); i > 0; i-- {
			tcs = append(tcs, TermCount{Term: rng.Intn(6), Count: float64(1+rng.Intn(3)) / 2}) // repeats accumulate
		}
		return tcs
	}
	values := func() []float64 {
		var xs []float64
		for i := rng.Intn(3); i > 0; i-- {
			xs = append(xs, rng.NormFloat64())
		}
		return xs
	}
	m := &Mutation{}
	switch rng.Intn(3) {
	case 0:
		m.Op = OpEdges
		edges := n.Edges()
		for i := rng.Intn(3); i > 0 && len(edges) > 0; i-- {
			e := edges[rng.Intn(len(edges))]
			ref := EdgeRef{From: n.Object(e.From).ID, To: n.Object(e.To).ID, Relation: n.RelationName(e.Rel)}
			m.Remove = append(m.Remove, ref)
			if rng.Intn(4) == 0 {
				m.Remove = append(m.Remove, ref) // named twice
			}
		}
		for i := rng.Intn(4); i > 0 || len(m.Remove)+len(m.Add) == 0; i-- {
			if len(edges) > 0 && rng.Intn(3) == 0 {
				e := edges[rng.Intn(len(edges))] // a parallel edge, usually of another weight
				m.Add = append(m.Add, Link{From: n.Object(e.From).ID, To: n.Object(e.To).ID, Relation: n.RelationName(e.Rel), Weight: weight()})
				continue
			}
			m.Add = append(m.Add, link(pick(), pick()))
		}
	case 1:
		m.Op = OpObjects
		types := []string{"paper", "author", "venue", "type-" + tag}
		ids := []string{pick()}
		for i := 0; i < 1+rng.Intn(3); i++ {
			o := Object{ID: fmt.Sprintf("obj-%s-%d", tag, i), Type: types[rng.Intn(len(types))]}
			if rng.Intn(2) == 0 {
				o.Terms = map[string][]TermCount{"text": terms()}
			}
			if rng.Intn(3) == 0 {
				o.Numeric = map[string][]float64{"score": values()}
			}
			m.Objects = append(m.Objects, o)
			ids = append(ids, o.ID)
		}
		for i := rng.Intn(4); i > 0; i-- {
			m.Links = append(m.Links, link(ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]))
		}
	case 2:
		m.Op = OpAttributes
		seen := make(map[string]bool)
		for i := 0; i < 1+rng.Intn(3); i++ {
			p := AttrPatch{ID: pick()}
			if seen[p.ID] {
				continue
			}
			seen[p.ID] = true
			if rng.Intn(2) == 0 {
				p.Terms = map[string][]TermCount{"text": terms()} // empty clears
			}
			if len(p.Terms) == 0 || rng.Intn(2) == 0 {
				p.Numeric = map[string][]float64{"score": values()}
			}
			m.Set = append(m.Set, p)
		}
	}
	if err := m.validate(noLimits()); err != nil {
		t.Fatalf("generated an invalid mutation: %v", err)
	}
	return m
}

// TestApplyMatchesScratchBuild is the oracle property test for the splice:
// per seed, 200 random mutations are applied in sequence, and after each
// one the result must equal a from-scratch Builder build of the mutated
// content in its JSON bytes, every relation's CSR, the merged in-link
// view, the type lists and the ID index. Each step also splices a sibling
// from the same parent, then checks that the parent and the first child
// are unchanged and that no child appended into a parent's slice.
func TestApplyMatchesScratchBuild(t *testing.T) {
	const (
		steps   = 200
		objects = 40
		links   = 90
	)
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			b := hin.NewBuilder()
			b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 6})
			b.DeclareAttribute(hin.AttrSpec{Name: "score", Kind: hin.Numeric})
			types := []string{"paper", "author", "venue"}
			for i := 0; i < objects; i++ {
				id := fmt.Sprintf("o%d", i)
				b.AddObject(id, types[i%len(types)])
				if i%3 != 2 {
					b.AddTermCount(id, "text", i%6, 1)
				}
				if i%4 == 0 {
					b.AddNumeric(id, "score", float64(i))
				}
			}
			rels := []string{"writes", "cites", "in"}
			for i := 0; i < links; i++ {
				b.AddLinkByIndex(rng.Intn(objects), rng.Intn(objects), rels[rng.Intn(len(rels))], float64(1+rng.Intn(4)))
			}
			cur, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			curState := stateOf(cur)
			counts := map[Op]int{}
			for step := 0; step < steps; step++ {
				m := randomMutation(t, rng, cur, fmt.Sprintf("%d-%d", seed, step))
				next, nextState, err := checkAgainstOracle(t, cur, m, rng)
				if err != nil {
					t.Fatalf("step %d: valid mutation rejected: %v", step, err)
				}
				counts[m.Op]++
				sibling := randomMutation(t, rng, cur, fmt.Sprintf("%d-%d-sibling", seed, step))
				if _, _, err := checkAgainstOracle(t, cur, sibling, rng); err != nil {
					t.Fatalf("step %d: valid sibling mutation rejected: %v", step, err)
				}
				if d := stateOf(cur).diff(curState); d != "" {
					t.Fatalf("step %d: Apply modified its parent: %s", step, d)
				}
				if d := stateOf(next).diff(nextState); d != "" {
					t.Fatalf("step %d: splicing a sibling modified the first child: %s", step, d)
				}
				cur, curState = next, nextState
			}
			for _, op := range []Op{OpEdges, OpObjects, OpAttributes} {
				if counts[op] == 0 {
					t.Fatalf("no %s mutation in %d steps", op, steps)
				}
			}
		})
	}
}

// TestParallelEdgeWeightOrder pins the canonical order of parallel edges:
// weights ascending, whatever order they were added in. Before the order
// broke ties on Weight, a chain whose o5→o6 link had weights 1 and 2.5
// ordered an applied third weight 7 after them, while a from-scratch build
// adding 7, 2.5, 1 kept that insertion order — different JSON bytes and a
// different EM summation order for the same content.
func TestParallelEdgeWeightOrder(t *testing.T) {
	chain := func(weights ...float64) *hin.Network {
		b := hin.NewBuilder()
		for i := 0; i < 40; i++ {
			b.AddObject(fmt.Sprintf("o%d", i), "node")
		}
		for i := 0; i+1 < 40; i++ {
			if i == 5 {
				for _, w := range weights {
					b.AddLink("o5", "o6", "next", w)
				}
				continue
			}
			b.AddLink(fmt.Sprintf("o%d", i), fmt.Sprintf("o%d", i+1), "next", 1)
		}
		n, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	m, err := Decode(OpEdges, []byte(`{"add":[{"from":"o5","to":"o6","rel":"next","w":7}]}`), noLimits())
	if err != nil {
		t.Fatal(err)
	}
	applied, err := Apply(chain(1, 2.5), m)
	if err != nil {
		t.Fatal(err)
	}
	scratch := chain(7, 2.5, 1)
	if d := stateOf(applied).diff(stateOf(scratch)); d != "" {
		t.Fatalf("applied network differs from the from-scratch build: %s", d)
	}
	_, wts := scratch.RelationCSR(0).Row(5)
	if !slices.Equal(wts, []float64{1, 2.5, 7}) {
		t.Fatalf("parallel o5→o6 weights in order %v, want [1 2.5 7]", wts)
	}
}
