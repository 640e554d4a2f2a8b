package hin

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// networkJSON is the on-disk representation: self-describing, stable across
// versions of the in-memory layout, and editable by hand for small networks.
type networkJSON struct {
	Objects []objectJSON `json:"objects"`
	Links   []linkJSON   `json:"links"`
	// Relations, when present, fixes the dense relation order: listed
	// names take the first ids, and relations only links name follow in
	// order of first appearance.
	Relations  []string   `json:"relations,omitempty"`
	Attributes []attrJSON `json:"attributes"`
}

type objectJSON struct {
	ID      string               `json:"id"`
	Type    string               `json:"type"`
	Terms   map[string][]tcJSON  `json:"terms,omitempty"`   // attr name → term counts
	Numeric map[string][]float64 `json:"numeric,omitempty"` // attr name → observations
}

type tcJSON struct {
	Term  int     `json:"t"`
	Count float64 `json:"c"`
}

type linkJSON struct {
	From     string  `json:"from"`
	To       string  `json:"to"`
	Relation string  `json:"rel"`
	Weight   float64 `json:"w"`
}

type attrJSON struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"` // "categorical" | "numeric"
	VocabSize int    `json:"vocab,omitempty"`
}

// MarshalJSON serializes the network. The document lists the relations in
// dense order, so decoding it numbers them as n does; a relation without
// links is left out (a decoded list may name only linked relations) and
// the relations after it move down one id.
func (n *Network) MarshalJSON() ([]byte, error) {
	doc := networkJSON{}
	linked := make([]bool, len(n.relations))
	for _, e := range n.edges {
		linked[e.Rel] = true
	}
	for r, name := range n.relations {
		if linked[r] {
			doc.Relations = append(doc.Relations, name)
		}
	}
	for _, spec := range n.attrs {
		doc.Attributes = append(doc.Attributes, attrJSON{
			Name:      spec.Name,
			Kind:      spec.Kind.String(),
			VocabSize: spec.VocabSize,
		})
	}
	for v, o := range n.objects {
		oj := objectJSON{ID: o.ID, Type: o.Type}
		for a, spec := range n.attrs {
			switch spec.Kind {
			case Categorical:
				if tcs := n.catObs[a][v]; len(tcs) > 0 {
					if oj.Terms == nil {
						oj.Terms = make(map[string][]tcJSON)
					}
					list := make([]tcJSON, len(tcs))
					for i, tc := range tcs {
						list[i] = tcJSON{Term: tc.Term, Count: tc.Count}
					}
					oj.Terms[spec.Name] = list
				}
			case Numeric:
				if xs := n.numObs[a][v]; len(xs) > 0 {
					if oj.Numeric == nil {
						oj.Numeric = make(map[string][]float64)
					}
					oj.Numeric[spec.Name] = xs
				}
			}
		}
		doc.Objects = append(doc.Objects, oj)
	}
	for _, e := range n.edges {
		doc.Links = append(doc.Links, linkJSON{
			From:     n.objects[e.From].ID,
			To:       n.objects[e.To].ID,
			Relation: n.relations[e.Rel],
			Weight:   e.Weight,
		})
	}
	return json.Marshal(doc)
}

// Limits bounds what a decoded network may allocate, protecting callers
// that decode untrusted input (the genclusd upload endpoint). A zero field
// means "no limit" on that dimension. MaxVocab matters most: a declared
// vocabulary size is an allocation amplifier — a few bytes of JSON make
// every fit allocate K×VocabSize floats per categorical attribute.
type Limits struct {
	MaxObjects      int // objects in the network
	MaxLinks        int // links in the network
	MaxAttributes   int // declared attributes
	MaxVocab        int // vocabulary size of any categorical attribute
	MaxObservations int // total term-count entries plus numeric observations
}

// LimitError reports input rejected because it exceeds a Limits bound —
// distinguishable (errors.As) from malformed-document errors so servers can
// answer 413 instead of 400.
type LimitError struct {
	Dimension string // "objects", "links", "attributes", "vocabulary", "observations"
	Got, Max  int    // observed count and the bound it exceeded
}

// Error implements the error interface.
func (e *LimitError) Error() string {
	return fmt.Sprintf("hin: %d %s exceeds limit %d", e.Got, e.Dimension, e.Max)
}

func (l Limits) check(doc *networkJSON) error {
	if l.MaxObjects > 0 && len(doc.Objects) > l.MaxObjects {
		return &LimitError{Dimension: "objects", Got: len(doc.Objects), Max: l.MaxObjects}
	}
	if l.MaxLinks > 0 && len(doc.Links) > l.MaxLinks {
		return &LimitError{Dimension: "links", Got: len(doc.Links), Max: l.MaxLinks}
	}
	if l.MaxAttributes > 0 && len(doc.Attributes) > l.MaxAttributes {
		return &LimitError{Dimension: "attributes", Got: len(doc.Attributes), Max: l.MaxAttributes}
	}
	if l.MaxVocab > 0 {
		for _, aj := range doc.Attributes {
			if aj.VocabSize > l.MaxVocab {
				return &LimitError{Dimension: "vocabulary", Got: aj.VocabSize, Max: l.MaxVocab}
			}
		}
	}
	if l.MaxObservations > 0 {
		var obs int
		for _, oj := range doc.Objects {
			for _, tcs := range oj.Terms {
				obs += len(tcs)
			}
			for _, xs := range oj.Numeric {
				obs += len(xs)
			}
			if obs > l.MaxObservations {
				return &LimitError{Dimension: "observations", Got: obs, Max: l.MaxObservations}
			}
		}
	}
	return nil
}

// CheckNetwork verifies a built network against the limits — the post-apply
// half of the mutation trust boundary. Limits.check bounds what a decoded
// document may allocate before it is built; CheckNetwork bounds what a
// network may grow into through incremental mutations, with the same
// dimensions and the same *LimitError so servers keep answering 413.
func (l Limits) CheckNetwork(n *Network) error {
	if l.MaxObjects > 0 && n.NumObjects() > l.MaxObjects {
		return &LimitError{Dimension: "objects", Got: n.NumObjects(), Max: l.MaxObjects}
	}
	if l.MaxLinks > 0 && n.NumEdges() > l.MaxLinks {
		return &LimitError{Dimension: "links", Got: n.NumEdges(), Max: l.MaxLinks}
	}
	if l.MaxAttributes > 0 && n.NumAttrs() > l.MaxAttributes {
		return &LimitError{Dimension: "attributes", Got: n.NumAttrs(), Max: l.MaxAttributes}
	}
	if l.MaxVocab > 0 {
		for _, spec := range n.attrs {
			if spec.VocabSize > l.MaxVocab {
				return &LimitError{Dimension: "vocabulary", Got: spec.VocabSize, Max: l.MaxVocab}
			}
		}
	}
	if l.MaxObservations > 0 {
		var obs int
		for a, spec := range n.attrs {
			switch spec.Kind {
			case Categorical:
				for _, tcs := range n.catObs[a] {
					obs += len(tcs)
				}
			case Numeric:
				for _, xs := range n.numObs[a] {
					obs += len(xs)
				}
			}
		}
		if obs > l.MaxObservations {
			return &LimitError{Dimension: "observations", Got: obs, Max: l.MaxObservations}
		}
	}
	return nil
}

// FromJSONLimited parses a network serialized by MarshalJSON, re-running
// full Builder validation, with resource limits enforced before any network
// structure is built — so a small hostile document cannot force a large
// allocation downstream. Limits fields that are zero are unenforced;
// callers decoding input they did not produce should pass real bounds
// (genclus.DefaultDecodeLimits is the library-wide default).
//
// There is deliberately no unbounded FromJSON: the bounded decoder is the
// only path from bytes to a Network, and "unbounded" is spelled Limits{}.
func FromJSONLimited(data []byte, lim Limits) (*Network, error) {
	var doc networkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("hin: parse network JSON: %w", err)
	}
	if err := lim.check(&doc); err != nil {
		return nil, err
	}
	b := NewBuilder()
	for _, aj := range doc.Attributes {
		var kind Kind
		switch aj.Kind {
		case "categorical":
			kind = Categorical
		case "numeric":
			kind = Numeric
		default:
			return nil, fmt.Errorf("hin: unknown attribute kind %q", aj.Kind)
		}
		b.DeclareAttribute(AttrSpec{Name: aj.Name, Kind: kind, VocabSize: aj.VocabSize})
	}
	for _, oj := range doc.Objects {
		b.AddObject(oj.ID, oj.Type)
	}
	for _, oj := range doc.Objects {
		for attr, tcs := range oj.Terms {
			for _, tc := range tcs {
				b.AddTermCount(oj.ID, attr, tc.Term, tc.Count)
			}
		}
		for attr, xs := range oj.Numeric {
			for _, x := range xs {
				b.AddNumeric(oj.ID, attr, x)
			}
		}
	}
	if err := internRelations(b, &doc); err != nil {
		return nil, err
	}
	for _, lj := range doc.Links {
		b.AddLink(lj.From, lj.To, lj.Relation, lj.Weight)
	}
	return b.Build()
}

// internRelations interns the document's listed relations in order. A
// listed name must be non-empty, listed once and named by some link, so a
// list can fix the relation order but never grow |R| — which sizes every
// fit's strength statistics — past what the links use.
func internRelations(b *Builder, doc *networkJSON) error {
	if len(doc.Relations) == 0 {
		return nil
	}
	used := make(map[string]bool)
	for _, lj := range doc.Links {
		used[lj.Relation] = true
	}
	listed := make(map[string]bool, len(doc.Relations))
	for _, name := range doc.Relations {
		switch {
		case name == "":
			return fmt.Errorf("hin: empty relation name in relations list")
		case listed[name]:
			return fmt.Errorf("hin: relation %q listed twice", name)
		case !used[name]:
			return fmt.Errorf("hin: listed relation %q has no links", name)
		}
		listed[name] = true
		b.Relation(name)
	}
	return nil
}

// WriteTo streams the JSON encoding to w.
func (n *Network) WriteTo(w io.Writer) (int64, error) {
	data, err := n.MarshalJSON()
	if err != nil {
		return 0, err
	}
	m, err := w.Write(data)
	return int64(m), err
}

// SaveFile writes the network to a JSON file.
func (n *Network) SaveFile(path string) error {
	data, err := n.MarshalJSON()
	if err != nil {
		return fmt.Errorf("hin: encode network: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("hin: write %s: %w", path, err)
	}
	return nil
}

// LoadFileLimited reads a network from a JSON file with resource limits
// enforced before any network structure is built. As with FromJSONLimited,
// Limits{} means unbounded and there is no unbounded convenience wrapper.
func LoadFileLimited(path string, lim Limits) (*Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hin: read %s: %w", path, err)
	}
	return FromJSONLimited(data, lim)
}
