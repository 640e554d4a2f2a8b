// Command e2ebench is genclus's end-to-end benchmark. It drives a real
// genclusd subprocess through the client SDK as a closed loop of at most
// two callers, on the ACP bibliographic network generated from a seed, and
// checks the daemon's outputs against in-process references. See README.md
// for the workloads, metrics and how to run it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"genclus/internal/trace"
)

// workloads are the benchmark's traffic mixes, in BENCHMARK.json order.
var workloads = []string{"fit-acp", "refit-warm", "mutate-mixed"}

// The network size of the ACP benchmark, and how many set-ups a run times
// (setup_s is their median; the workload runs against the last one). The
// smoke test overrides them through the config fields.
const (
	numAuthors = 5000
	numPapers  = 5000
	numSetups  = 5
)

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	daemonBin string
	workDir   string
	authors   int
	papers    int
	setups    int
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := &config{authors: numAuthors, papers: numPapers, setups: numSetups}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: all, or one of "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the network, queries and mutations are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.daemonBin, "daemon", "", "path to the genclusd binary")
	flag.StringVar(&cfg.workDir, "work", ".bench_build", "directory for daemon data dirs, logs, reports and span dumps")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := cfg.validate(traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloads
	}
	correct := true
	for _, w := range names {
		c := *cfg
		c.workload = w
		res, err := run(ctx, &c, os.Stdout)
		if err == nil {
			var line []byte
			if line, err = json.Marshal(res); err == nil {
				fmt.Println(string(line))
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w, err)
			stop()
			os.Exit(1)
		}
		correct = correct && res.Correct
	}
	if !correct {
		stop()
		os.Exit(1)
	}
}

func (c *config) validate(traceFlag int) error {
	known := c.workload == "all"
	for _, w := range workloads {
		known = known || w == c.workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown -workload %q (want all or one of %s)", c.workload, strings.Join(workloads, ", "))
	case traceFlag != 0 && traceFlag != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	case c.daemonBin == "":
		return fmt.Errorf("-daemon is required (run through e2ebench/run.sh)")
	case !(c.seconds > 0):
		return fmt.Errorf("-seconds must be positive")
	}
	return nil
}

// run performs one benchmark run and returns its result line. Report lines
// (every metric by name, unit and sample count, the host record, the
// failure accounting and the gates) go to out; the full report is also
// written as JSON under the work dir.
func run(ctx context.Context, cfg *config, out io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.workDir, fmt.Sprintf("run-%s-%d-", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}

	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Host: hostRecord()}
	led := newLedger()
	in, err := makeInputs(cfg.seed, cfg.authors, cfg.papers)
	if err != nil {
		return nil, err
	}

	var s *session
	defer func() {
		if s != nil {
			s.d.stop()
		}
	}()
	var setupS, setupRSS []float64
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.d.stop()
		}
		var took time.Duration
		if s, took, err = setup(ctx, cfg, in, led, runDir, i); err != nil {
			return nil, err
		}
		setupS = append(setupS, took.Seconds())
		setupRSS = append(setupRSS, s.setupRSS)
	}
	rep.add("setup_s", median(setupS), "s", len(setupS))
	// The gated peak RSS is taken when set-up ends, after a fixed amount of
	// work. At the end of the measured phase it also holds every finished
	// job the daemon retains until its TTL, so it grows with fit throughput;
	// it is only reported.
	rss := median(setupRSS)
	rep.add("daemon_peak_rss_mb", rss, "MB", len(setupRSS))

	// The measured phase. A traced run records a span around every second
	// SDK call, so the same run reports the tracing overhead.
	var tr *trace.Recorder
	if cfg.trace {
		tr = trace.NewRecorder(maxTraces)
	}
	m := runPhase(ctx, cfg, s, in, tr, led, time.Duration(cfg.seconds*float64(time.Second)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if m.cpuErr != nil {
		return nil, fmt.Errorf("read the daemon's CPU time: %w", m.cpuErr)
	}
	endRSS, err := s.d.statusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	rep.add("daemon_peak_rss_end_mb", endRSS, "MB", 1)
	rep.measured(cfg.workload, m)

	g := &gates{led: led}
	model := runGates(ctx, s, in, led, g)
	rep.Gates = g.list

	res := &result{Metrics: make(map[string]metric)}
	if !cfg.trace {
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		res.Metrics["op_cpu_rel"] = metric{m.opCPURel(cfg.workload), "x"}
		res.Metrics["daemon_peak_rss_mb"] = metric{rss, "MB"}
	} else {
		layers, err := s.serverLayers(ctx, cfg.workload, m)
		if err != nil {
			return nil, err
		}
		// Replay with the daemon stopped, so it does not compete for CPU.
		s.d.stop()
		sent := s.sent
		s = nil
		if model == nil {
			return nil, errors.New("no model snapshot to replay: export failed")
		}
		replayed, err := replay(tr, in, sent, model, filepath.Join(runDir, "replay"))
		if err != nil {
			return nil, err
		}
		for k, v := range replayed {
			layers[k] = v
		}
		for k, v := range layers {
			res.Metrics[k] = metric{v, layerUnits[k]}
		}
		rep.Layers = res.Metrics
	}

	tot := led.totals()
	res.Attempted, res.Failed = tot.Attempted, tot.Failed
	res.Correct = g.passed() && tot.Failed == 0
	rep.Phases, rep.Errors = led.phases, led.errs
	rep.print(out, res)
	if res.Correct {
		// Keep the daemon logs of a failed run for diagnosis.
		os.RemoveAll(runDir)
	}
	return res, rep.write(cfg.workDir, tr)
}
