package deltalog

import (
	"slices"

	"genclus/internal/hin"
)

// Apply materializes the next view generation: the mutation, already past
// Decode, has its object IDs, relation names and attribute names resolved
// against the network into a hin.Delta, which hin.Network.Splice turns
// into the next generation. The input network is never modified — callers
// holding it (in-flight fits, assigns, drift scoring) keep a consistent
// snapshot — and the two generations share every structure the mutation
// does not touch. Semantic contradictions come back as *ApplyError. The
// returned network builds no in-link index until a reader asks for one
// (hin.Network.InLinks), which no default fit does.
//
// Determinism: Splice stores exactly what Builder.Build would for the
// mutated content — edges in (From, Rel, To, Weight) order, observations
// in sorted sparse form — so Apply(n, m) is bit-for-bit the network a
// from-scratch build of the mutated content would produce, independent of
// mutation history chunking. Warm-start refits of generation G therefore
// reproduce a manual fit of the same generation exactly.
func Apply(n *hin.Network, m *Mutation) (*hin.Network, error) {
	r := resolver{n: n}
	var err error
	switch m.Op {
	case OpEdges:
		err = r.edges(m)
	case OpObjects:
		err = r.objects(m)
	case OpAttributes:
		err = r.attributes(m)
	default:
		err = applyErrf("unknown mutation op %q", m.Op)
	}
	if err != nil {
		return nil, err
	}
	next, err := n.Splice(&r.d)
	if err != nil {
		return nil, &ApplyError{Msg: err.Error()}
	}
	return next, nil
}

// resolver translates one mutation's IDs and names into the dense indices
// of a hin.Delta against network n. Objects and relations the mutation
// introduces get the indices that follow n's, in first-appearance order.
type resolver struct {
	n      *hin.Network
	d      hin.Delta
	newObj map[string]int
	newRel map[string]int
}

func (r *resolver) object(id string) (int, bool) {
	if v, ok := r.n.IndexOf(id); ok {
		return v, true
	}
	v, ok := r.newObj[id]
	return v, ok
}

// relation returns the dense index of the named relation, appending it to
// the delta when the network does not know it yet.
func (r *resolver) relation(name string) int {
	if id, ok := r.n.RelationID(name); ok {
		return id
	}
	if id, ok := r.newRel[name]; ok {
		return id
	}
	if r.newRel == nil {
		r.newRel = make(map[string]int)
	}
	id := r.n.NumRelations() + len(r.d.Relations)
	r.newRel[name] = id
	r.d.Relations = append(r.d.Relations, name)
	return id
}

func (r *resolver) links(what string, links []Link) error {
	r.d.Add = slices.Grow(r.d.Add, len(links))
	for _, l := range links {
		from, ok := r.object(l.From)
		if !ok {
			return applyErrf("%s: unknown object %q", what, l.From)
		}
		to, ok := r.object(l.To)
		if !ok {
			return applyErrf("%s: unknown object %q", what, l.To)
		}
		r.d.Add = append(r.d.Add, hin.Edge{From: from, To: to, Rel: r.relation(l.Relation), Weight: l.Weight})
	}
	return nil
}

func (r *resolver) edges(m *Mutation) error {
	// One EdgeRef removes every parallel edge matching its triple;
	// duplicated refs are redundant but harmless.
	for _, ref := range m.Remove {
		from, ok := r.n.IndexOf(ref.From)
		if !ok {
			return applyErrf("remove: unknown object %q", ref.From)
		}
		to, ok := r.n.IndexOf(ref.To)
		if !ok {
			return applyErrf("remove: unknown object %q", ref.To)
		}
		rel, ok := r.n.RelationID(ref.Relation)
		if !ok {
			return applyErrf("remove: unknown relation %q", ref.Relation)
		}
		r.d.Remove = append(r.d.Remove, hin.LinkKey{From: from, Rel: rel, To: to})
	}
	return r.links("add", m.Add)
}

func (r *resolver) objects(m *Mutation) error {
	r.newObj = make(map[string]int, len(m.Objects))
	for _, o := range m.Objects {
		if _, exists := r.object(o.ID); exists {
			return applyErrf("objects: id %q already exists", o.ID)
		}
		v := r.n.NumObjects() + len(r.d.Objects)
		r.newObj[o.ID] = v
		r.d.Objects = append(r.d.Objects, hin.Object{ID: o.ID, Type: o.Type})
		if err := r.observations(v, o.ID, o.Terms, o.Numeric); err != nil {
			return err
		}
	}
	return r.links("links", m.Links)
}

func (r *resolver) attributes(m *Mutation) error {
	for _, p := range m.Set {
		v, ok := r.n.IndexOf(p.ID)
		if !ok {
			return applyErrf("set: unknown object %q", p.ID)
		}
		if err := r.observations(v, p.ID, p.Terms, p.Numeric); err != nil {
			return err
		}
	}
	return nil
}

// observations adds one patch per named attribute of object v, checking
// that the attribute exists and that its kind matches the map it appears
// in (an empty list clears the observation). Term ranges and values are
// checked by Splice.
func (r *resolver) observations(v int, objID string, terms map[string][]TermCount, numeric map[string][]float64) error {
	for attr, tcs := range terms {
		a, ok := r.n.AttrID(attr)
		if !ok {
			return applyErrf("object %q: unknown attribute %q", objID, attr)
		}
		if r.n.Attr(a).Kind != hin.Categorical {
			return applyErrf("object %q: attribute %q is numeric, not categorical", objID, attr)
		}
		p := hin.ObsPatch{Object: v, Attr: a, Terms: make([]hin.TermCount, len(tcs))}
		for i, tc := range tcs {
			p.Terms[i] = hin.TermCount(tc)
		}
		r.d.Obs = append(r.d.Obs, p)
	}
	for attr, xs := range numeric {
		a, ok := r.n.AttrID(attr)
		if !ok {
			return applyErrf("object %q: unknown attribute %q", objID, attr)
		}
		if r.n.Attr(a).Kind != hin.Numeric {
			return applyErrf("object %q: attribute %q is categorical, not numeric", objID, attr)
		}
		r.d.Obs = append(r.d.Obs, hin.ObsPatch{Object: v, Attr: a, Values: xs})
	}
	return nil
}

// Touched returns the IDs of objects a mutation bears evidence about — the
// endpoints of added and removed edges, newly added objects, and patched
// objects — in first-appearance order with duplicates removed. The refit
// supervisor samples these for drift scoring.
func (m *Mutation) Touched() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(id string) {
		if id != "" && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, l := range m.Add {
		add(l.From)
		add(l.To)
	}
	for _, r := range m.Remove {
		add(r.From)
		add(r.To)
	}
	for _, o := range m.Objects {
		add(o.ID)
	}
	for _, l := range m.Links {
		add(l.From)
		add(l.To)
	}
	for _, p := range m.Set {
		add(p.ID)
	}
	return out
}
