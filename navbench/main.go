// Command navbench is the repository's benchmark: one command that runs a
// seeded workload in-process through the library's public layers, checks
// the answers, and prints every metric by name and unit.
//
//	bash navbench/run.sh --workload paper|sweep|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// instrumentation in the measured path.  With --trace 1 it runs the same
// work untraced and traced (spans around each layer call plus counting
// wrappers around the distance source and the contact sampler), prints the
// per-layer metrics and the tracing overhead, and writes the spans to a
// JSON-lines file.  The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
// when an answer check fails, and a workload that cannot run prints no
// result at all.
// See README.md for what each workload stresses and which end-to-end
// metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the library sees, printed by every
// workload's untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"route_qps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, named by module.  A workload that
// never enters a layer reports 0 for it.
var perLayer = []metricDef{
	{"graph.gen_s", "s"},
	{"dist.label_build_s", "s"},
	{"dist.label_entries", "count"},
	{"dist.label_mb", "MB"},
	{"dist.calls_per_route", "count"},
	{"dist.self_s", "s"},
	{"dist.query_ns", "ns"},
	{"augment.prepare_s.uniform", "s"},
	{"augment.prepare_s.ball", "s"},
	{"augment.contacts_per_route.uniform", "count"},
	{"augment.contacts_per_route.ball", "count"},
	{"augment.contact_self_s.uniform", "s"},
	{"augment.contact_self_s.ball", "s"},
	{"route.self_s", "s"},
	{"route.steps_per_route", "count"},
	{"route.long_links_per_route", "count"},
	{"sim.estimate_s.powerlaw.uniform", "s"},
	{"sim.estimate_s.powerlaw.ball", "s"},
	{"sim.estimate_s.regular.uniform", "s"},
	{"sim.estimate_s.regular.ball", "s"},
	{"scenario.E1_s", "s"},
	{"scenario.E2_s", "s"},
	{"scenario.E3_s", "s"},
	{"scenario.E4_s", "s"},
	{"scenario.E5_s", "s"},
	{"scenario.E6_s", "s"},
	{"scenario.E7_s", "s"},
	{"scenario.E8_s", "s"},
	{"scenario.E9_s", "s"},
	{"scenario.E10_s", "s"},
	{"scenario.E13_s", "s"},
	{"scenario.cells", "count"},
	{"scenario.trials", "count"},
	{"scenario.graph_reuse", "ratio"},
	{"scenario.prepare_reuse", "ratio"},
	{"core.oracle_build_s", "s"},
	{"core.schemes_prepare_s", "s"},
	{"snapshot.encode_s", "s"},
	{"snapshot.mb", "MB"},
	{"snapshot.load_s", "s"},
	{"serve.new_s", "s"},
	{"serve.route_p50_ms", "ms"},
	{"serve.route_p99_ms", "ms"},
	{"serve.route_samples", "count"},
	{"serve.dist_qps", "1/s"},
	{"serve.dist_p50_ms", "ms"},
	{"serve.dist_p99_ms", "ms"},
	{"serve.dist_samples", "count"},
	{"serve.handler_route_p50_ms", "ms"},
	{"serve.handler_dist_p50_ms", "ms"},
	{"runtime.gc_count", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_s", "s"},
}

// config is what a workload run is parameterised by.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// workers is the thread, worker and connection count of every pool
	// the workload starts: one per CPU.
	workers int
	// small shrinks every input to smoke-test size.
	small bool
	// spans is where a traced run writes its spans ("" = nowhere).
	spans string
	// log receives progress and diagnostics.
	log io.Writer
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	// problems lists every failed answer check; empty means correct.
	problems []string
	metrics  map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// checkf records a failed answer check unless ok holds.
func (o *outcome) checkf(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(cfg config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"paper": runPaper,
	"sweep": runSweep,
	"serve": runServe,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metrics of the run's mode: every end-to-end
// metric untraced, every per-layer metric traced.
func buildResult(o *outcome, traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: o.metrics[d.Name], Unit: d.Unit}
	}
	return res
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("navbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed; equal seeds give equal inputs")
	seconds := fs.Float64("seconds", 15, "how long the timed repetitions run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spans := fs.String("spans", "", "span output file of a traced run (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "navbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		workers: runtime.NumCPU(),
		log:     stderr,
	}
	if cfg.trace {
		cfg.spans = *spans
		if cfg.spans == "" {
			cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *name, *seed))
		}
	}
	o, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "navbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "navbench: check failed: %s\n", p)
	}
	res := buildResult(o, cfg.trace)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "navbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
