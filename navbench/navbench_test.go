package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"navaug/internal/augment"
	"navaug/internal/core"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/route"
	"navaug/internal/sim"
	"navaug/internal/xrand"
)

func smallConfig(seed uint64, trace bool, t *testing.T) config {
	cfg := config{seed: seed, seconds: 0.01, trace: trace, workers: 2, small: true, log: &bytes.Buffer{}}
	if trace {
		cfg.spans = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	return cfg
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsSmoke runs every workload at smoke size in both modes: no
// check fails, every operation succeeds, and the traced run writes spans.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := smallConfig(7, trace, t)
			o, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(o.problems) > 0 || o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%s trace=%v: attempted %d, failed %d, problems %q", name, trace, o.attempted, o.failed, o.problems)
			}
			res := buildResult(o, trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				if !trace && res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.Name, res.Metrics[d.Name].Value)
				}
			}
			if trace {
				b, err := os.ReadFile(cfg.spans)
				if err != nil || len(b) == 0 {
					t.Errorf("%s: no spans written (%v)", name, err)
				}
			}
		}
	}
}

// TestNamesMatchBenchmarkJSON pins the printed metric names, units and
// workloads to BENCHMARK.json.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if !reflect.DeepEqual(wl, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", wl, workloadNames())
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var listed []metricDef
		for _, m := range c.listed {
			listed = append(listed, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(listed, c.defs) {
			t.Errorf("metrics differ:\nBENCHMARK.json %v\nprogram        %v", listed, c.defs)
		}
	}
}

// TestResultLine checks the printed last line: exactly the contract's
// keys, and exactly the mode's metric names.
func TestResultLine(t *testing.T) {
	o := newOutcome()
	o.attempted = 3
	for _, trace := range []bool{false, true} {
		line, err := json.Marshal(buildResult(o, trace))
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
			t.Errorf("keys %v, want %v", keys, want)
		}
		var metrics map[string]metricValue
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		var names []string
		for k := range metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		want := metricNames(endToEnd)
		if trace {
			want = metricNames(perLayer)
		}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("trace=%v: metrics %v, want %v", trace, names, want)
		}
	}
}

// TestBadArguments: an unknown workload or a bad flag exits non-zero
// without printing a result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "paper", "--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestSeedsChangeInputs: two seeds route different pairs and send
// different requests, and report the same metric names.
func TestSeedsChangeInputs(t *testing.T) {
	pairs := func(seed uint64) []sim.Pair {
		cfg := smallConfig(seed, false, t)
		graphs, err := sweepSetup(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine(2)
		defer eng.Close()
		ests, _, err := sweepPass(cfg, 1, eng, graphs, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []sim.Pair
		for _, est := range ests {
			for _, ps := range est.PairStats {
				out = append(out, ps.Pair)
			}
		}
		return out
	}
	if reflect.DeepEqual(pairs(1), pairs(2)) {
		t.Error("sweep: seeds 1 and 2 routed the same pairs")
	}

	urls := func(seed uint64) []string {
		cfg := smallConfig(seed, false, t)
		s, err := startServe(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		routes, dists, err := serveInputs(cfg, s, newOutcome())
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range routes {
			out = append(out, r.path)
		}
		for _, r := range dists {
			out = append(out, string(r.body))
		}
		return out
	}
	if reflect.DeepEqual(urls(1), urls(2)) {
		t.Error("serve: seeds 1 and 2 generated the same requests")
	}

	var names [][]string
	for _, seed := range []uint64{1, 2} {
		o, err := runSweep(smallConfig(seed, false, t))
		if err != nil {
			t.Fatal(err)
		}
		var n []string
		for k := range buildResult(o, false).Metrics {
			n = append(n, k)
		}
		sort.Strings(n)
		names = append(names, n)
	}
	if !reflect.DeepEqual(names[0], names[1]) {
		t.Errorf("seeds report different metrics: %v vs %v", names[0], names[1])
	}
}

// sniffedInterfaces returns the method sets of every interface type that
// the non-test files of the given repository packages type-assert to.
func sniffedInterfaces(t *testing.T, dirs ...string) [][]string {
	var sets [][]string
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join("..", dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources in %s (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ta, ok := n.(*ast.TypeAssertExpr)
				if !ok {
					return true
				}
				it, ok := ta.Type.(*ast.InterfaceType)
				if !ok {
					return true
				}
				var methods []string
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						methods = append(methods, name.Name)
					}
				}
				sets = append(sets, methods)
				return true
			})
		}
	}
	return sets
}

func hasMethods(v any, methods []string) bool {
	typ := reflect.TypeOf(v)
	for _, m := range methods {
		if _, ok := typ.MethodByName(m); !ok {
			return false
		}
	}
	return true
}

// bareSource is a distance source with no optional methods.
type bareSource struct{ dist.Source }

// TestWrappersForwardOptionalInterfaces: every optional interface the
// routing path (route, sim) type-asserts a source or instance to is
// present on a tracing wrapper exactly when the wrapped value has it, so
// tracing neither hides a check or fast path nor invents one.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	sets := sniffedInterfaces(t, "internal/route", "internal/sim")
	if len(sets) == 0 {
		t.Fatal("found no optional-interface assertions; the scan is broken")
	}
	g, err := core.GraphByName("grid", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	field := dist.NewField(g.BFS(0), 0)
	table := augment.Freeze("uniform", augment.InstanceFunc(func(u graph.NodeID, _ *xrand.RNG) graph.NodeID { return u }), g.N(), xrand.New(1))
	var stats leafStats
	for _, methods := range sets {
		for _, inner := range []any{field, bareSource{field}, table, augment.InstanceFunc(table.Contact)} {
			var wrapped any
			if src, ok := inner.(dist.Source); ok {
				wrapped = traceSource(src, &stats)
			} else {
				wrapped = traceInstance(inner.(augment.Instance), &stats)
			}
			if hasMethods(wrapped, methods) != hasMethods(inner, methods) {
				t.Errorf("%T wrapping %T: methods %v forwarded=%v, present on inner=%v",
					wrapped, inner, methods, hasMethods(wrapped, methods), hasMethods(inner, methods))
			}
		}
	}

	// The route layer's size check must still fire through the wrapper.
	other, err := core.GraphByName("grid", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, errPlain := route.Greedy(other, table, 0, 0, field, xrand.New(1), route.Options{})
	_, errWrapped := route.Greedy(other, table, 0, 0, traceSource(field, &stats), xrand.New(1), route.Options{})
	if errPlain == nil || errWrapped == nil || errPlain.Error() != errWrapped.Error() {
		t.Errorf("size check: unwrapped %v, wrapped %v", errPlain, errWrapped)
	}
}

// TestTracedEstimatesIdentical: wrapping the source and the instance
// changes no greedy diameter or any other estimate field.
func TestTracedEstimatesIdentical(t *testing.T) {
	cfg := smallConfig(3, false, t)
	graphs, err := sweepSetup(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(2)
	defer eng.Close()
	plain, _, err := sweepPass(cfg, 1, eng, graphs, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, traces, err := sweepPass(cfg, 1, eng, graphs, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Error("traced estimates differ from untraced ones")
	}
	for i, ct := range traces {
		if calls, _ := ct.contact.totals(); calls == 0 {
			t.Errorf("cell %d (%s/%s): the traced pass counted no contact draws", i, ct.family, ct.scheme)
		}
	}
}
