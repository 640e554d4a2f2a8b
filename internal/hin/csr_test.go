package hin

import (
	"slices"
	"sync"
	"testing"
)

// checkLinkInvariants verifies the structural soundness of a network's link
// storage:
//
//   - the edge list is in canonical (From, Rel, To, Weight) order with every
//     index in range, and OutEdges partitions it by source — the walk order
//     the EM loop's determinism contract relies on;
//   - the in-link index holds exactly the edge list regrouped by target,
//     each target's links in edge order.
//
// The fuzzer calls it on every decodable input.
func checkLinkInvariants(t testing.TB, net *Network) {
	t.Helper()
	nObj := net.NumObjects()
	nRel := net.NumRelations()
	edges := net.Edges()
	for i, e := range edges {
		if e.From < 0 || e.From >= nObj || e.To < 0 || e.To >= nObj || e.Rel < 0 || e.Rel >= nRel {
			t.Fatalf("edge %d (%d -[%d]-> %d) out of range", i, e.From, e.Rel, e.To)
		}
		if i > 0 && compareEdges(edges[i-1], e) > 0 {
			t.Fatalf("edges %d and %d out of canonical order", i-1, i)
		}
	}
	i := 0
	for v := 0; v < nObj; v++ {
		out := net.OutEdges(v)
		if len(out) != net.OutDegree(v) {
			t.Fatalf("OutEdges/OutDegree disagree at %d", v)
		}
		for _, e := range out {
			if e.From != v || e != edges[i] {
				t.Fatalf("out-links of %d diverge from edge %d: got %+v, want %+v", v, i, e, edges[i])
			}
			i++
		}
	}
	if i != len(edges) {
		t.Fatalf("out-links cover %d of %d edges", i, len(edges))
	}

	// Regrouping the edge list by target, stably, is the in-link index.
	byTarget := slices.Clone(edges)
	slices.SortStableFunc(byTarget, func(a, b Edge) int { return a.To - b.To })
	start, from, rels, wts := net.InLinkArrays()
	if len(start) != nObj+1 || start[0] != 0 || start[nObj] != len(edges) ||
		len(from) != len(edges) || len(rels) != len(edges) || len(wts) != len(edges) {
		t.Fatalf("in-link index shape: %d offsets ending at %d, %d/%d/%d entries for %d objects and %d edges",
			len(start), start[len(start)-1], len(from), len(rels), len(wts), nObj, len(edges))
	}
	for v := 0; v < nObj; v++ {
		f, r, w := net.InLinks(v)
		for j := range f {
			e := byTarget[start[v]+j]
			if e.To != v || f[j] != e.From || r[j] != e.Rel || w[j] != e.Weight {
				t.Fatalf("in-link %d of %d is (%d, %d, %v), want %+v", j, v, f[j], r[j], w[j], e)
			}
		}
	}
}

func TestCSRToyNetwork(t *testing.T) {
	checkLinkInvariants(t, buildToy(t))
}

// TestCSREmptyRelation: a relation interned without any links keeps its
// dense id and stores no links, and relations emptied by FilterEdges keep
// their dense ids too.
func TestCSREmptyRelation(t *testing.T) {
	b := NewBuilder()
	b.AddObject("a", "t")
	b.AddObject("c", "t")
	b.Relation("lonely")
	b.AddLink("a", "c", "used", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkLinkInvariants(t, net)
	lonely, ok := net.RelationID("lonely")
	if !ok {
		t.Fatal("interned relation lost")
	}
	for _, e := range net.Edges() {
		if e.Rel == lonely {
			t.Fatalf("empty relation stores link %+v", e)
		}
	}

	filtered, err := FilterEdges(net, func(Edge) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	checkLinkInvariants(t, filtered)
	if filtered.NumRelations() != net.NumRelations() {
		t.Fatal("FilterEdges dropped relation ids")
	}
}

// TestCSRSelfLinks: a self-link appears among the object's own out-links
// and in-links.
func TestCSRSelfLinks(t *testing.T) {
	b := NewBuilder()
	b.AddObject("a", "t")
	b.AddObject("c", "t")
	b.AddLink("a", "a", "self", 2)
	b.AddLink("a", "c", "self", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkLinkInvariants(t, net)
	va, _ := net.IndexOf("a")
	r, _ := net.RelationID("self")
	out := net.OutEdges(va)
	if len(out) != 2 || out[0].To != va || out[0].Weight != 2 {
		t.Fatalf("self-link missing from out-links: %+v", out)
	}
	from, rels, iwts := net.InLinks(va)
	if len(from) != 1 || from[0] != va || rels[0] != r || iwts[0] != 2 {
		t.Fatalf("self-link missing from in-links: from=%v rels=%v wts=%v", from, rels, iwts)
	}
}

// TestCSRDuplicateLinks: duplicate (src, dst, relation) links stay separate
// adjacent entries whose weights accumulate when walked — coalescing them
// would change the EM summation tree and break bitwise determinism.
func TestCSRDuplicateLinks(t *testing.T) {
	b := NewBuilder()
	b.AddObject("a", "t")
	b.AddObject("c", "t")
	b.AddLink("a", "c", "r", 1)
	b.AddLink("a", "c", "r", 2.5)
	b.AddLink("a", "c", "other", 4)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkLinkInvariants(t, net)
	va, _ := net.IndexOf("a")
	vc, _ := net.IndexOf("c")
	r, _ := net.RelationID("r")
	out := net.OutEdges(va)
	if len(out) != 3 || out[0].Rel != r || out[1].Rel != r || out[0].To != vc || out[1].To != vc {
		t.Fatalf("duplicate links not kept as separate entries: %+v", out)
	}
	if total := out[0].Weight + out[1].Weight; total != 3.5 {
		t.Fatalf("duplicate weights accumulate to %v, want 3.5", total)
	}
	from, rels, iwts := net.InLinks(vc)
	if len(from) != 3 || rels[0] != r || rels[1] != r || iwts[0]+iwts[1] != 3.5 {
		t.Fatalf("in-links lost a duplicate: from=%v rels=%v wts=%v", from, rels, iwts)
	}
}

// TestCSRInLinksRoundTrip: regrouping the in-link index by source
// reproduces every object's out-links, in order, on a network with
// interleaved relations and asymmetric links.
func TestCSRInLinksRoundTrip(t *testing.T) {
	net := buildToy(t)
	nObj := net.NumObjects()
	rebuilt := make([][]Edge, nObj)
	for v := 0; v < nObj; v++ {
		from, rels, wts := net.InLinks(v)
		for j, u := range from {
			rebuilt[u] = append(rebuilt[u], Edge{From: u, To: v, Rel: rels[j], Weight: wts[j]})
		}
	}
	for v := 0; v < nObj; v++ {
		got := rebuilt[v]
		slices.SortFunc(got, compareEdges)
		if want := net.OutEdges(v); !slices.Equal(got, want) {
			t.Fatalf("object %d: in-links regroup to %+v, out-links are %+v", v, got, want)
		}
	}
}

// TestPrepareCSRConcurrent: many goroutines racing PrepareCSR and the
// in-link accessors must observe one consistent build (run with -race).
func TestPrepareCSRConcurrent(t *testing.T) {
	net := buildToy(t)
	starts := make([][]int, 8)
	var wg sync.WaitGroup
	for i := range starts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				net.PrepareCSR()
			}
			starts[i], _, _, _ = net.InLinkArrays()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(starts); i++ {
		if &starts[i][0] != &starts[0][0] {
			t.Fatal("concurrent PrepareCSR produced distinct builds")
		}
	}
	checkLinkInvariants(t, net)
}
