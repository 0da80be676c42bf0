package route

import (
	"reflect"
	"testing"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/graph/gen"
	"navaug/internal/xrand"
)

// countingSource counts the distance queries a route makes.
type countingSource struct {
	dist.Source
	calls *int
}

func (c countingSource) Dist(u, t graph.NodeID) int32 {
	*c.calls++
	return c.Source.Dist(u, t)
}

// exactTier is one exact distance tier: built for a graph, it returns the
// graph to route on (the churned one for the repair oracle) and a source
// rooted at any target.
type exactTier struct {
	name  string
	build func(t *testing.T, g *graph.Graph) (*graph.Graph, func(graph.NodeID) dist.Source)
}

func shared(src dist.Source) func(graph.NodeID) dist.Source {
	return func(graph.NodeID) dist.Source { return src }
}

func exactTiers() []exactTier {
	return []exactTier{
		{"field", func(_ *testing.T, g *graph.Graph) (*graph.Graph, func(graph.NodeID) dist.Source) {
			return g, func(t graph.NodeID) dist.Source { return dist.NewField(g.BFS(t), t) }
		}},
		{"apsp", func(_ *testing.T, g *graph.Graph) (*graph.Graph, func(graph.NodeID) dist.Source) {
			return g, shared(dist.NewAPSP(g))
		}},
		{"twohop", func(_ *testing.T, g *graph.Graph) (*graph.Graph, func(graph.NodeID) dist.Source) {
			return g, shared(dist.NewTwoHopWith(g, dist.TwoHopOptions{}))
		}},
		{"twohop-packed", func(_ *testing.T, g *graph.Graph) (*graph.Graph, func(graph.NodeID) dist.Source) {
			return g, shared(dist.NewTwoHopWith(g, dist.TwoHopOptions{Packed: true}))
		}},
		{"analytic", func(_ *testing.T, g *graph.Graph) (*graph.Graph, func(graph.NodeID) dist.Source) {
			m, ok := gen.MetricFor(g)
			if !ok {
				return nil, nil
			}
			return g, shared(m)
		}},
		{"dyntwohop", func(t *testing.T, g *graph.Graph) (*graph.Graph, func(graph.NodeID) dist.Source) {
			// One churn batch repaired with an unlimited budget: the oracle
			// serves patched answers and carries no debt, so it is exact on
			// the churned graph.
			d := graph.NewDynGraph(g)
			o, err := dist.NewDynTwoHop(d, dist.TwoHopOptions{})
			if err != nil {
				t.Fatal(err)
			}
			e := g.Edges()[len(g.Edges())/2]
			deltas := []graph.Delta{{U: e.U, V: e.V, Op: graph.DeltaDelete}}
			for v := graph.NodeID(1); int(v) < g.N(); v++ {
				if !g.HasEdge(0, v) && v != e.V {
					deltas = append(deltas, graph.Delta{U: 0, V: v, Op: graph.DeltaInsert})
					break
				}
			}
			if _, err := o.ApplyBatch(d, deltas, -1); err != nil {
				t.Fatal(err)
			}
			if o.Debt() != 0 {
				t.Fatalf("unlimited repair left debt %d", o.Debt())
			}
			return d.Compact(), shared(o)
		}},
	}
}

// twoComponents is a 10x10 grid beside a 40-node random tree: pairs across
// the gap are unreachable and must fail identically in both modes.
func twoComponents() *graph.Graph {
	grid := gen.Grid2D(10, 10)
	tree := gen.RandomTree(40, xrand.New(4))
	b := graph.NewBuilder(grid.N() + tree.N())
	for _, e := range grid.Edges() {
		b.AddEdge(e.U, e.V)
	}
	off := graph.NodeID(grid.N())
	for _, e := range tree.Edges() {
		b.AddEdge(e.U+off, e.V+off)
	}
	return b.Build()
}

// TestExactEarlyExitMatchesFullScan: on every exact tier, Greedy and
// GreedyWithLookahead return the same Result — path included — and leave
// the RNG in the same state with Options.Exact as without it, while never
// making more distance queries.
func TestExactEarlyExitMatchesFullScan(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"powerlaw", gen.PowerLawAttachment(600, 2, xrand.New(1))},
		{"bintree", gen.BinaryTree(255)},
		{"grid", gen.Grid2D(16, 16)},
		{"two-components", twoComponents()},
	}
	routers := []struct {
		name string
		fn   func(*graph.Graph, augment.Instance, graph.NodeID, graph.NodeID, dist.Source, *xrand.RNG, Options) (Result, error)
	}{
		{"greedy", Greedy},
		{"lookahead", GreedyWithLookahead},
	}
	for _, gc := range graphs {
		for _, tier := range exactTiers() {
			t.Run(gc.name+"/"+tier.name, func(t *testing.T) {
				g, srcFor := tier.build(t, gc.g)
				if g == nil {
					t.Skip("no analytic metric for this family")
				}
				var saved, fullCalls, exactCalls int
				for _, scheme := range []augment.Scheme{augment.NewUniformScheme(), augment.NewBallScheme()} {
					inst, err := scheme.Prepare(g)
					if err != nil {
						t.Fatal(err)
					}
					pairRNG := xrand.New(7)
					for i := 0; i < 12; i++ {
						s := graph.NodeID(pairRNG.Intn(g.N()))
						tt := graph.NodeID(pairRNG.Intn(g.N()))
						src := srcFor(tt)
						for _, r := range routers {
							seed := uint64(100 + i)
							rngFull, rngExact := xrand.New(seed), xrand.New(seed)
							full, errFull := r.fn(g, inst, s, tt, countingSource{src, &fullCalls}, rngFull, Options{Trace: true})
							exact, errExact := r.fn(g, inst, s, tt, countingSource{src, &exactCalls}, rngExact, Options{Trace: true, Exact: true})
							if (errFull == nil) != (errExact == nil) || (errFull != nil && errFull.Error() != errExact.Error()) {
								t.Fatalf("%s %s %d->%d: errors differ: %v vs %v", scheme.Name(), r.name, s, tt, errFull, errExact)
							}
							if !reflect.DeepEqual(full, exact) {
								t.Fatalf("%s %s %d->%d: full scan %+v, exact %+v", scheme.Name(), r.name, s, tt, full, exact)
							}
							if rngFull.Uint64() != rngExact.Uint64() {
								t.Fatalf("%s %s %d->%d: contact RNG streams diverged", scheme.Name(), r.name, s, tt)
							}
							if exactCalls > fullCalls {
								t.Fatalf("%s %s %d->%d: exact mode made more distance queries (%d > %d)", scheme.Name(), r.name, s, tt, exactCalls, fullCalls)
							}
							saved += fullCalls - exactCalls
							fullCalls, exactCalls = 0, 0
						}
					}
				}
				if saved == 0 {
					t.Error("early exit never saved a distance query")
				}
			})
		}
	}
}

// TestExactRoutingTrialAllocatesNothing pins the hot path: one Greedy
// trial with a reused Scratch and Options.Exact allocates nothing, on
// packed 2-hop labels and on a BFS field.
func TestExactRoutingTrialAllocatesNothing(t *testing.T) {
	g := gen.PowerLawAttachment(2000, 2, xrand.New(3))
	inst, err := augment.NewUniformScheme().Prepare(g)
	if err != nil {
		t.Fatal(err)
	}
	s, tt := graph.NodeID(1999), graph.NodeID(5)
	// Hold each source as a dist.Source so interface boxing happens once,
	// as the sim engine does per pair.
	var packed dist.Source = dist.NewTwoHopWith(g, dist.TwoHopOptions{Packed: true})
	var field dist.Source = dist.NewField(g.BFS(tt), tt)
	for name, src := range map[string]dist.Source{"twohop-packed": packed, "field": field} {
		t.Run(name, func(t *testing.T) {
			rng := xrand.New(1)
			opts := Options{Scratch: NewScratch(g.N()), Exact: true}
			allocs := testing.AllocsPerRun(100, func() {
				res, err := Greedy(g, inst, s, tt, src, rng, opts)
				if err != nil || !res.Reached {
					t.Fatalf("trial failed: %+v, %v", res, err)
				}
			})
			if allocs != 0 {
				t.Fatalf("routing trial allocated %.1f times, want 0", allocs)
			}
		})
	}
}
