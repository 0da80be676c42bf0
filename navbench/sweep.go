package main

import (
	"fmt"
	"reflect"
	"strconv"
	"time"

	"navaug/internal/augment"
	"navaug/internal/core"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/scenario"
	"navaug/internal/sim"
	"navaug/internal/xrand"
)

// sweepFamily is one E12 graph the sweep workload runs the cell pipeline
// on.  powerlaw (m=2) at 2^16 resolves to packed 2-hop labels; regular
// (d=4) at 2^13 is below dist.TwoHopAutoMinNodes and steers by BFS
// fields, so it bypasses the label tier.  The graphs are E12's own
// instances: built with the experiments' default seed (graphSeed), so
// every run measures the same graphs and the workload seed varies the
// routed pairs and the contact draws.
type sweepFamily struct {
	name     string
	n, small int
}

// graphSeed builds the sweep and serve graphs: the seed EXPERIMENTS.md is
// generated with.  Random graphs of one family differ from seed to seed in
// hub structure and so in label size, label build time and memory (powerlaw
// 2^16: 5.1 to 6.4 million label entries over three seeds), which would
// spread every set-up, memory and query metric across seeds; a fixed
// instance keeps those metrics about the program.
var graphSeed = scenario.DefaultConfig().Seed

var sweepFamilies = []sweepFamily{
	{"powerlaw", 1 << 16, 1 << 10},
	{"regular", 1 << 13, 1 << 9},
}

// sweepBudget is one cell's fixed routing budget: pairs (plus the
// extremal pair) times trials.  Many pairs with few trials each average
// the per-pair cost over the seed's pair sample.  The budgets give the
// label-steered uniform routes on powerlaw and the ball routes, whose
// per-draw ball searches dominate them, each a large share of a pass.
// Uniform routes on regular steer by BFS fields, one per target and
// pass, and are cheap: that cell is the control that neither the label
// tier nor the ball sampler should move.  Both regular cells route the
// same pairs, so a pass's target fields fit the 64-field cache and the
// ball cell reuses them.
type sweepBudget struct {
	family, scheme string
	pairs, trials  int
}

var sweepBudgets = []sweepBudget{
	{"powerlaw", "uniform", 192, 6},
	{"powerlaw", "ball", 40, 1},
	{"regular", "uniform", 60, 20},
	{"regular", "ball", 60, 5},
}

var sweepSchemes = []string{"uniform", "ball"}

// sweepGraph is one family's built artefacts: the graph, the distance
// tier the auto policy resolved (nil: BFS fields), and the prepared
// schemes.
type sweepGraph struct {
	family string
	g      *graph.Graph
	src    dist.Source
	fields *dist.FieldCache
	insts  map[string]augment.Instance
}

// sweepSetup builds every family's artefacts the way an E12 cell does.
func sweepSetup(cfg config, tr *tracer) ([]*sweepGraph, error) {
	root := tr.start("sweep.setup", nil, 0)
	defer root.end()
	var out []*sweepGraph
	for _, fam := range sweepFamilies {
		n := fam.n
		if cfg.small {
			n = fam.small
		}
		sp := tr.start("graph.gen", root, 0)
		g, err := core.GraphByName(fam.name, n, scenario.GraphSeed(graphSeed, fam.name, n))
		sp.end()
		if err != nil {
			return nil, err
		}
		sg := &sweepGraph{family: fam.name, g: g, insts: map[string]augment.Instance{}}
		sp = tr.start("dist.resolve", root, 0)
		metric, _ := gen.MetricFor(g)
		sg.src = dist.PolicyAuto.ResolveWith(g, metric, cfg.workers)
		sp.end()
		if sg.src == nil {
			sg.fields = dist.NewFieldCache(g, 64)
		}
		for _, name := range sweepSchemes {
			scheme, err := core.SchemeByName(name)
			if err != nil {
				return nil, err
			}
			sp = tr.start("augment.prepare."+name, root, 0)
			inst, err := scheme.Prepare(g)
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("preparing %s on %s: %w", name, fam.name, err)
			}
			sg.insts[name] = inst
		}
		out = append(out, sg)
	}
	return out, nil
}

// sweepCellConfig is the fixed estimation budget of one cell in pass k.
// Each pass routes its own pair sample of the workload seed, so the
// median over a run's passes averages the per-pair cost over many pairs.
// As in a scenario run, the sample depends on the graph but not on the
// scheme, so both schemes of a graph route the same pairs.
func sweepCellConfig(cfg config, k int, sg *sweepGraph, b sweepBudget) sim.Config {
	c := sim.Config{
		Pairs:               b.pairs,
		Trials:              b.trials,
		Seed:                (cfg.seed + uint64(k)*0x9e3779b97f4a7c15) ^ scenario.Hash64(sg.family+"#"+strconv.Itoa(sg.g.N())),
		IncludeExtremalPair: true,
		DistSource:          sg.src,
	}
	if sg.src == nil {
		c.DistFields = sg.fields
	}
	if cfg.small {
		c.Pairs, c.Trials = 4, 2
	}
	return c
}

// cellTrace is what the traced pass learns about one cell.
type cellTrace struct {
	family, scheme string
	wall           time.Duration
	dist, contact  leafStats
	wrappedDist    bool
}

// sweepPass estimates every cell once, on pass k's pairs.  With a tracer
// each cell runs under a span, with its distance source and contact
// sampler wrapped.
func sweepPass(cfg config, k int, eng *sim.Engine, graphs []*sweepGraph, tr *tracer) ([]*sim.Estimate, []*cellTrace, error) {
	var ests []*sim.Estimate
	var traces []*cellTrace
	for _, b := range sweepBudgets {
		for _, sg := range graphs {
			if sg.family != b.family {
				continue
			}
			sc := sweepCellConfig(cfg, k, sg, b)
			inst := sg.insts[b.scheme]
			var ct *cellTrace
			if tr != nil {
				ct = &cellTrace{family: sg.family, scheme: b.scheme}
				inst = traceInstance(inst, &ct.contact)
				if sc.DistSource != nil {
					sc.DistSource = traceSource(sc.DistSource, &ct.dist)
					ct.wrappedDist = true
				}
			}
			sp := tr.start("sim.estimate."+sg.family+"."+b.scheme, nil, 0)
			est, err := eng.EstimateInstance(sg.g, b.scheme, inst, sc)
			wall := sp.end()
			if err != nil {
				return nil, nil, fmt.Errorf("%s/%s: %w", sg.family, b.scheme, err)
			}
			ests = append(ests, est)
			if ct != nil {
				ct.wall = wall
				calls, total := ct.dist.totals()
				tr.aggregate("dist.Source.Dist", sp, calls, total)
				calls, total = ct.contact.totals()
				tr.aggregate("augment.Instance.Contact", sp, calls, total)
				traces = append(traces, ct)
			}
		}
	}
	return ests, traces, nil
}

// checkEstimates verifies the routing invariants of one pass and counts
// its routes: every route reaches its target, and on these exact tiers no
// route takes more steps than the graph distance of its pair.
func checkEstimates(o *outcome, ests []*sim.Estimate) (routes int64) {
	for _, est := range ests {
		for _, ps := range est.PairStats {
			trials := int64(ps.Steps.Count + ps.Failed)
			if ps.Unreachable {
				trials = 1
				o.failed++
				o.checkf(false, "sweep: %s/%s pair %v is unreachable", est.GraphName, est.Scheme, ps.Pair)
			}
			o.attempted += trials
			routes += trials
			o.failed += int64(ps.Failed)
			o.checkf(ps.Failed == 0, "sweep: %s/%s pair %v: %d routes never reached the target",
				est.GraphName, est.Scheme, ps.Pair, ps.Failed)
			o.checkf(ps.Steps.Count == 0 || ps.Steps.Max <= float64(ps.Dist),
				"sweep: %s/%s pair %v: %g steps exceed the distance %d", est.GraphName, est.Scheme, ps.Pair, ps.Steps.Max, ps.Dist)
		}
	}
	return routes
}

// checkTier compares each graph's distance tier with BFS on a few seeded
// targets.
func checkTier(cfg config, o *outcome, graphs []*sweepGraph) {
	rng := xrand.New(cfg.seed ^ 0x5eed)
	for _, sg := range graphs {
		for k := 0; k < 3; k++ {
			t := graph.NodeID(rng.Intn(sg.g.N()))
			want := sg.g.BFS(t)
			var got func(u graph.NodeID) int32
			if sg.src != nil {
				got = func(u graph.NodeID) int32 { return sg.src.Dist(u, t) }
			} else {
				field := sg.fields.Field(t)
				got = func(u graph.NodeID) int32 { return field[u] }
			}
			bad := 0
			for u := range want {
				if got(graph.NodeID(u)) != want[u] {
					bad++
				}
			}
			o.checkf(bad == 0, "sweep: %s tier disagrees with BFS at %d nodes for target %d", sg.family, bad, t)
		}
	}
}

// queryNs times a fixed seeded set of point-to-point queries on src, in
// nanoseconds per query.
func queryNs(seed uint64, n int, src dist.Source) float64 {
	const queries = 1 << 17
	rng := xrand.New(seed ^ 0x9e37)
	pairs := make([][2]graph.NodeID, queries)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
	}
	var sink int32
	d, _ := timed(func() error {
		for _, p := range pairs {
			sink += src.Dist(p[0], p[1])
		}
		return nil
	})
	_ = sink
	return float64(d.Nanoseconds()) / queries
}

// runSweep times E12's cell pipeline on two of E12's own graphs: set-up
// builds each graph, resolves its distance tier and prepares both
// schemes; a pass estimates every (graph, scheme) cell with a fixed
// budget on one engine.  Untraced, the run sets up three times and times
// a block of passes on each set-up's artefacts, so that its samples
// spread over the whole run.
func runSweep(cfg config) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	setups := 3
	if cfg.trace {
		tr = newTracer()
		setups = 1
	}
	eng := sim.NewEngine(cfg.workers)
	defer eng.Close()
	var graphs []*sweepGraph
	pass := func(k int, tr *tracer) ([]*sim.Estimate, []*cellTrace, time.Duration, error) {
		var ests []*sim.Estimate
		var traces []*cellTrace
		d, err := timed(func() error {
			var err error
			ests, traces, err = sweepPass(cfg, k, eng, graphs, tr)
			return err
		})
		if err == nil {
			checkEstimates(o, ests)
		}
		return ests, traces, d, err
	}

	var setupTimes, walls, rates []float64
	k := 0 // pass k routes the k-th pair sample
	for i := 0; i < setups; i++ {
		graphs = nil // let the previous set-up's artefacts go first
		freeMemory()
		d, err := timed(func() (err error) {
			graphs, err = sweepSetup(cfg, tr)
			return err
		})
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		if i == 0 {
			checkTier(cfg, o, graphs)
		}
		// The first pass on fresh artefacts warms them up and is not timed.
		if _, _, _, err := pass(k, nil); err != nil {
			return nil, err
		}
		k++
		if cfg.trace {
			break
		}
		w, err := repeat(secondsDuration(cfg.seconds/float64(setups)), func() (time.Duration, error) {
			before := o.attempted
			_, _, d, err := pass(k, nil)
			k++
			rates = append(rates, float64(o.attempted-before)/d.Seconds())
			return d, err
		})
		if err != nil {
			return nil, err
		}
		walls = append(walls, w...)
	}
	if !cfg.trace {
		o.metrics["setup_s"] = median(setupTimes)
		o.metrics["wall_s"] = median(walls)
		o.metrics["route_qps"] = median(rates)
		o.metrics["peak_rss_mb"] = peakRSSMB()
		logPasses(cfg, "sweep", setupTimes, walls)
		return o, nil
	}

	// Untraced and traced passes alternate on the same pair samples; the
	// tracing overhead is the difference of their median times, and the
	// per-layer metrics come from the first traced pass.
	var plainWalls, tracedWalls []float64
	var traced []*sim.Estimate
	var traces []*cellTrace
	for end := k + 3; k < end; k++ {
		before := readMem()
		plain, _, dp, err := pass(k, nil)
		if err != nil {
			return nil, err
		}
		if plainWalls == nil {
			recordRuntime(o, before, readMem())
		}
		ests, cts, dt, err := pass(k, tr)
		if err != nil {
			return nil, err
		}
		o.checkf(reflect.DeepEqual(plain, ests), "sweep: pass %d: traced estimates differ from untraced ones", k)
		if traced == nil {
			traced, traces = ests, cts
		}
		plainWalls = append(plainWalls, dp.Seconds())
		tracedWalls = append(tracedWalls, dt.Seconds())
	}
	o.metrics["trace.overhead_s"] = median(tracedWalls) - median(plainWalls)
	sweepLayers(o, tr, cfg.workers, graphs, traced, traces)
	for _, sg := range graphs {
		if sg.src != nil {
			o.metrics["dist.query_ns"] = queryNs(cfg.seed, sg.g.N(), sg.src)
		}
	}
	o.metrics["runtime.peak_rss_mb"] = peakRSSMB()
	if err := tr.writeFile(cfg.spans); err != nil {
		return nil, err
	}
	return o, nil
}

// sweepLayers derives the sweep's per-layer metrics from the set-up spans
// and the traced pass.
func sweepLayers(o *outcome, tr *tracer, workers int, graphs []*sweepGraph, ests []*sim.Estimate, traces []*cellTrace) {
	o.metrics["graph.gen_s"] = tr.total("graph.gen").Seconds()
	o.metrics["dist.label_build_s"] = tr.total("dist.resolve").Seconds()
	for _, name := range sweepSchemes {
		o.metrics["augment.prepare_s."+name] = tr.total("augment.prepare." + name).Seconds()
	}
	for _, sg := range graphs {
		if th, ok := sg.src.(*dist.TwoHop); ok {
			o.metrics["dist.label_entries"] += float64(th.Entries())
			o.metrics["dist.label_mb"] += float64(th.MemoryBytes()) / 1e6
		}
	}

	var routes, steps, longLinks float64
	for _, est := range ests {
		r := float64(est.Samples)
		routes += r
		steps += est.MeanSteps * r
		longLinks += est.MeanLongLinks * r
	}
	o.metrics["route.steps_per_route"] = steps / routes
	o.metrics["route.long_links_per_route"] = longLinks / routes

	var distCalls, distRoutes float64
	var distSelf, routeSelf time.Duration
	contacts := map[string]float64{}
	schemeRoutes := map[string]float64{}
	for i, ct := range traces {
		r := float64(ests[i].Samples)
		o.metrics["sim.estimate_s."+ct.family+"."+ct.scheme] = ct.wall.Seconds()
		cCalls, cTotal := ct.contact.totals()
		contacts[ct.scheme] += float64(cCalls)
		schemeRoutes[ct.scheme] += r
		o.metrics["augment.contact_self_s."+ct.scheme] += cTotal.Seconds()
		if ct.wrappedDist {
			dCalls, dTotal := ct.dist.totals()
			distCalls += float64(dCalls)
			distRoutes += r
			distSelf += dTotal
			// The engine's workers route in parallel: the estimate's self
			// time is its worker time (workers x wall, which counts a
			// worker idling at the end of a cell as route time) minus
			// the summed time of its Dist and Contact calls.
			routeSelf += time.Duration(workers)*ct.wall - dTotal - cTotal
		}
	}
	for scheme, c := range contacts {
		o.metrics["augment.contacts_per_route."+scheme] = c / schemeRoutes[scheme]
	}
	if distRoutes > 0 {
		o.metrics["dist.calls_per_route"] = distCalls / distRoutes
	}
	o.metrics["dist.self_s"] = distSelf.Seconds()
	o.metrics["route.self_s"] = routeSelf.Seconds()
}
