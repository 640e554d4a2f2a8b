package main

import (
	"fmt"
	"math/rand"

	"genclus/client"
	"genclus/internal/datagen"
	"genclus/internal/hin"
)

// inputs is everything a run sends, generated from the seed alone: the ACP
// bibliographic network of the paper's §5.1 (authors, papers and 20
// conferences, titles on papers only), its upload document, the assign
// query pool and the authorship-link generator.
type inputs struct {
	ds      *datagen.Dataset
	doc     []byte
	queries []client.AssignRequest
	muts    *linkGen
}

const (
	numClusters = 4
	queryPool   = 256
)

func makeInputs(seed int64, authors, papers int) (*inputs, error) {
	cfg := datagen.DefaultBiblioConfig(datagen.SchemaACP, seed)
	cfg.NumAreas = numClusters
	cfg.NumAuthors, cfg.NumPapers = authors, papers
	ds, err := datagen.Biblio(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate network: %w", err)
	}
	doc, err := ds.Net.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("encode network: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	qs, err := paperQueries(ds.Net, rng, queryPool)
	if err != nil {
		return nil, err
	}
	return &inputs{ds: ds, doc: doc, queries: qs, muts: newLinkGen(ds.Net, rng)}, nil
}

// paperQueries builds n one-object assign requests, each a "new paper": an
// existing paper's written_by / published_by_pc links plus its title
// terms.
func paperQueries(net *hin.Network, rng *rand.Rand, n int) ([]client.AssignRequest, error) {
	text, ok := net.AttrID(datagen.AttrText)
	if !ok {
		return nil, fmt.Errorf("network has no %q attribute", datagen.AttrText)
	}
	papers := net.ObjectsOfType(datagen.TypePaper)
	out := make([]client.AssignRequest, 0, n)
	for len(out) < n {
		v := papers[rng.Intn(len(papers))]
		obj := client.AssignObject{ID: fmt.Sprintf("q%d", len(out))}
		for _, e := range net.OutEdges(v) {
			obj.Links = append(obj.Links, client.AssignLink{
				Relation: net.RelationName(e.Rel), To: net.Object(e.To).ID, Weight: e.Weight,
			})
		}
		var terms []client.AssignTermCount
		for _, tc := range net.TermCounts(text, v) {
			terms = append(terms, client.AssignTermCount{Term: tc.Term, Count: tc.Count})
		}
		if len(terms) > 0 {
			obj.Terms = map[string][]client.AssignTermCount{datagen.AttrText: terms}
		}
		out = append(out, client.AssignRequest{Objects: []client.AssignObject{obj}})
	}
	return out, nil
}

// linkGen draws new authorship pairs — an existing author and an existing
// paper not yet linked — each sent as one 2-link mutation: write (author →
// paper) plus written_by (paper → author).
type linkGen struct {
	rng     *rand.Rand
	authors []string
	papers  []string
	linked  map[[2]int]bool
}

func newLinkGen(net *hin.Network, rng *rand.Rand) *linkGen {
	g := &linkGen{rng: rand.New(rand.NewSource(rng.Int63())), linked: make(map[[2]int]bool)}
	aIdx := make(map[int]int)
	for _, v := range net.ObjectsOfType(datagen.TypeAuthor) {
		aIdx[v] = len(g.authors)
		g.authors = append(g.authors, net.Object(v).ID)
	}
	pIdx := make(map[int]int)
	for _, v := range net.ObjectsOfType(datagen.TypePaper) {
		pIdx[v] = len(g.papers)
		g.papers = append(g.papers, net.Object(v).ID)
	}
	write, _ := net.RelationID(datagen.RelWrite)
	for _, e := range net.Edges() {
		if e.Rel == write {
			g.linked[[2]int{aIdx[e.From], pIdx[e.To]}] = true
		}
	}
	return g
}

// next returns the two edges of the next authorship mutation.
func (g *linkGen) next() []client.Edge {
	for {
		a, p := g.rng.Intn(len(g.authors)), g.rng.Intn(len(g.papers))
		if g.linked[[2]int{a, p}] {
			continue
		}
		g.linked[[2]int{a, p}] = true
		return []client.Edge{
			{From: g.authors[a], To: g.papers[p], Relation: datagen.RelWrite, Weight: 1},
			{From: g.papers[p], To: g.authors[a], Relation: datagen.RelWrittenBy, Weight: 1},
		}
	}
}
