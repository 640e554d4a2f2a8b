package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload, untraced and traced, at a tiny network
// size against a freshly built genclusd, and checks that each run is
// correct and reports exactly the metrics BENCHMARK.json declares, with
// their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives genclusd")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "genclusd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/genclusd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build genclusd: %v\n%s", err, out)
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := &config{
				workload: w, seed: 3, seconds: 1, trace: traced,
				daemonBin: bin, workDir: filepath.Join(dir, "work"),
				authors: 600, papers: 600, setups: 1,
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			var out bytes.Buffer
			res, err := run(ctx, cfg, &out)
			cancel()
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			checkMetrics(t, w, traced, res.Metrics, want)
			if !strings.Contains(out.String(), "# host nproc=") {
				t.Errorf("%s trace=%v: report has no host record", w, traced)
			}
		}
	}
}

func checkMetrics(t *testing.T, w string, traced bool, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s trace=%v: metric %s missing", w, traced, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w, traced, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s trace=%v: metric %s = %v", w, traced, m.Name, g.Value)
		}
	}
}
