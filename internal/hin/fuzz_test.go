package hin

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// fuzzLimits keeps hostile inputs from exploding memory during fuzzing; the
// same mechanism shields the genclusd upload endpoint in production.
var fuzzLimits = Limits{
	MaxObjects:      2000,
	MaxLinks:        10000,
	MaxAttributes:   32,
	MaxVocab:        4096,
	MaxObservations: 20000,
}

// FuzzDecodeNetwork hammers the untrusted-input decoder: any byte slice
// must either fail with an error or produce a network that survives a full
// marshal → decode round trip unchanged in shape. Panics and round-trip
// drift are the bugs being hunted.
func FuzzDecodeNetwork(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(fixtures) == 0 {
		f.Fatal("no testdata fixtures to seed the corpus")
	}
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"objects":[{"id":"a","type":"t"}]}`))
	f.Add([]byte(`{"attributes":[{"name":"n","kind":"numeric"}],"objects":[{"id":"a","type":"t","numeric":{"n":[1e308,-1e308]}}]}`))
	// Self-links and duplicate (src, dst, relation) links: the edge list
	// must keep duplicates as separate adjacent entries (never coalesce).
	f.Add([]byte(`{"objects":[{"id":"a","type":"t"},{"id":"b","type":"t"}],` +
		`"links":[{"from":"a","to":"a","rel":"self","w":1},` +
		`{"from":"a","to":"b","rel":"r","w":1},{"from":"a","to":"b","rel":"r","w":2},` +
		`{"from":"b","to":"a","rel":"r","w":0.5}]}`))

	// Links naming relations out of dense-id order ([writes cites], while
	// the canonical edge order names cites first), with and without a
	// relations list.
	f.Add([]byte(`{"objects":[{"id":"p1","type":"paper"},{"id":"p2","type":"paper"},{"id":"a1","type":"author"}],` +
		`"links":[{"from":"a1","to":"p1","rel":"writes","w":1},{"from":"p1","to":"p2","rel":"cites","w":1}]}`))
	f.Add([]byte(`{"objects":[{"id":"a","type":"t"},{"id":"b","type":"t"}],"relations":["r","s"],` +
		`"links":[{"from":"b","to":"a","rel":"s","w":1},{"from":"a","to":"b","rel":"r","w":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := FromJSONLimited(data, fuzzLimits)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		enc, err := net.MarshalJSON()
		if err != nil {
			t.Fatalf("network decoded from %q fails to marshal: %v", data, err)
		}
		again, err := FromJSONLimited(enc, fuzzLimits)
		if err != nil {
			t.Fatalf("round trip rejects own output: %v\ninput: %q\nencoded: %q", err, data, enc)
		}
		if again.NumObjects() != net.NumObjects() ||
			again.NumEdges() != net.NumEdges() ||
			again.NumRelations() != net.NumRelations() ||
			again.NumAttrs() != net.NumAttrs() {
			t.Fatalf("round trip changed shape: objects %d→%d edges %d→%d relations %d→%d attrs %d→%d",
				net.NumObjects(), again.NumObjects(), net.NumEdges(), again.NumEdges(),
				net.NumRelations(), again.NumRelations(), net.NumAttrs(), again.NumAttrs())
		}
		if !slices.Equal(again.Relations(), net.Relations()) {
			t.Fatalf("round trip renumbered relations: %q → %q", net.Relations(), again.Relations())
		}
		// Any decodable network must also yield structurally sound link
		// storage — what every fit walks.
		checkLinkInvariants(t, net)
	})
}

// TestFromJSONLimited pins the limit checks outside the fuzzer so plain
// `go test` exercises them too.
func TestFromJSONLimited(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "small.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromJSONLimited(data, Limits{}); err != nil {
		t.Fatalf("no limits: %v", err)
	}
	mixed, err := os.ReadFile(filepath.Join("testdata", "mixed.json"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		lim  Limits
	}{
		{"objects", data, Limits{MaxObjects: 1}},
		{"links", data, Limits{MaxLinks: 1}},
		{"attributes", mixed, Limits{MaxAttributes: 1}}, // mixed.json declares 2
		{"observations", data, Limits{MaxObservations: 1}},
	}
	for _, tc := range cases {
		_, err := FromJSONLimited(tc.data, tc.lim)
		var lim *LimitError
		if !errors.As(err, &lim) {
			t.Errorf("%s limit not enforced (err=%v)", tc.name, err)
		} else if lim.Dimension != tc.name {
			t.Errorf("%s limit reported dimension %q", tc.name, lim.Dimension)
		}
	}
	if _, err := FromJSONLimited([]byte(`{"attributes":[{"name":"t","kind":"categorical","vocab":1000000000}],"objects":[{"id":"a","type":"t"}]}`),
		Limits{MaxVocab: 4096}); err == nil {
		t.Error("gigantic vocabulary accepted")
	}
}
