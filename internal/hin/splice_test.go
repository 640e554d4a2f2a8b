package hin

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestSpliceRejectsInvalidDeltas pins Splice's own validation: a delta
// Build would reject — or one whose indices point nowhere — is an error,
// and the parent is left as it was.
func TestSpliceRejectsInvalidDeltas(t *testing.T) {
	net := buildToy(t)
	before, _ := net.MarshalJSON()
	a1, _ := net.IndexOf("a1")
	p1, _ := net.IndexOf("p1")
	write, _ := net.RelationID("write")
	text, _ := net.AttrID("text")
	score, _ := net.AttrID("score")
	cases := map[string]Delta{
		"empty object id":          {Objects: []Object{{ID: "", Type: "paper"}}},
		"existing object id":       {Objects: []Object{{ID: "a1", Type: "author"}}},
		"object id twice":          {Objects: []Object{{ID: "x", Type: "t"}, {ID: "x", Type: "t"}}},
		"existing relation":        {Relations: []string{"write"}},
		"empty relation":           {Relations: []string{""}},
		"link past objects":        {Add: []Edge{{From: a1, To: 99, Rel: write, Weight: 1}}},
		"link past relations":      {Add: []Edge{{From: a1, To: p1, Rel: 99, Weight: 1}}},
		"zero weight":              {Add: []Edge{{From: a1, To: p1, Rel: write, Weight: 0}}},
		"NaN weight":               {Add: []Edge{{From: a1, To: p1, Rel: write, Weight: math.NaN()}}},
		"infinite weight":          {Add: []Edge{{From: a1, To: p1, Rel: write, Weight: math.Inf(1)}}},
		"remove missing link":      {Remove: []LinkKey{{From: p1, Rel: write, To: a1}}},
		"remove out of range":      {Remove: []LinkKey{{From: -1, Rel: write, To: a1}}},
		"patch past objects":       {Obs: []ObsPatch{{Object: 99, Attr: text}}},
		"patch twice":              {Obs: []ObsPatch{{Object: p1, Attr: text}, {Object: p1, Attr: text}}},
		"terms on numeric":         {Obs: []ObsPatch{{Object: p1, Attr: score, Terms: []TermCount{{Term: 0, Count: 1}}}}},
		"values on categorical":    {Obs: []ObsPatch{{Object: p1, Attr: text, Values: []float64{1}}}},
		"term outside vocabulary":  {Obs: []ObsPatch{{Object: p1, Attr: text, Terms: []TermCount{{Term: 10, Count: 1}}}}},
		"non-positive term count":  {Obs: []ObsPatch{{Object: p1, Attr: text, Terms: []TermCount{{Term: 1, Count: 0}}}}},
		"non-finite numeric value": {Obs: []ObsPatch{{Object: p1, Attr: score, Values: []float64{math.Inf(-1)}}}},
	}
	for name, d := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := net.Splice(&d); err == nil {
				t.Fatal("Splice accepted an invalid delta")
			}
		})
	}
	if after, _ := net.MarshalJSON(); string(after) != string(before) {
		t.Fatal("a rejected splice modified the parent")
	}
}

// TestSpliceConcurrent splices children from one parent that is not yet
// CSR-prepared on several goroutines at once, each child adding an object
// of a shared type and a link from it, and walks every child's views
// while the others are being built (run with -race).
func TestSpliceConcurrent(t *testing.T) {
	net := buildToy(t)
	write, _ := net.RelationID("write")
	p1, _ := net.IndexOf("p1")
	children := make([]*Network, 8)
	errs := make([]error, len(children))
	var wg sync.WaitGroup
	for i := range children {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := net.NumObjects()
			children[i], errs[i] = net.Splice(&Delta{
				Objects: []Object{{ID: fmt.Sprintf("a%d-new", i), Type: "author"}},
				Add:     []Edge{{From: v, To: p1, Rel: write, Weight: float64(i + 1)}},
			})
			if errs[i] == nil {
				children[i].InLinkArrays()
				children[i].RelationCSRs()
			}
		}(i)
	}
	wg.Wait()
	for i, c := range children {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		checkCSRInvariants(t, c)
		authors := c.ObjectsOfType("author")
		if last := c.Object(authors[len(authors)-1]).ID; last != fmt.Sprintf("a%d-new", i) {
			t.Fatalf("child %d's newest author is %q: siblings share a type list", i, last)
		}
		from, _, wts := c.InLinks(p1)
		if from[len(from)-1] != net.NumObjects() || wts[len(wts)-1] != float64(i+1) {
			t.Fatalf("child %d's new in-link is (%d, %v)", i, from[len(from)-1], wts[len(wts)-1])
		}
	}
	if got := len(net.ObjectsOfType("author")); got != 2 {
		t.Fatalf("parent has %d authors after splicing, want 2", got)
	}
}
