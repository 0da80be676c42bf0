// Package sim is the Monte Carlo engine that estimates greedy diameters of
// augmented graphs.  It samples source/target pairs, redraws the
// augmentation several times per pair, routes greedily, and aggregates the
// step counts into an Estimate.
//
// The workhorse is the persistent Engine (see engine.go): a reusable worker
// pool that serves many estimations — fixed-budget or streaming/adaptive —
// and can be shared by concurrently-running scenarios.  The free functions
// in this file are convenience wrappers that spin up a transient engine for
// one-shot callers; results are identical either way because every (pair,
// trial) block derives its RNG stream from the seed and the pair index
// alone, never from worker scheduling.
package sim

import (
	"fmt"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/stats"
	"navaug/internal/xrand"
)

// Pair is a source/target pair for routing.
type Pair struct {
	Source, Target graph.NodeID
}

// Config tunes an estimation run.
type Config struct {
	// Pairs is the number of source/target pairs to sample (default 16).
	// When FixedPairs is non-empty it is ignored.
	Pairs int
	// Trials is the number of independent augmentation draws (and routings)
	// per pair (default 8).  In adaptive mode (TargetCI > 0) it is the size
	// of the first batch and the minimum per-pair budget.
	Trials int
	// Seed drives all sampling; runs with equal seeds produce equal results.
	Seed uint64
	// Workers is the worker pool size used by the transient-engine wrappers
	// (default GOMAXPROCS).  Engine methods ignore it — the engine owns its
	// pool.  The worker count never affects results.
	Workers int
	// MaxSteps caps a single routing walk (default: route's own default).
	MaxSteps int
	// FixedPairs, when non-empty, replaces random pair sampling entirely.
	FixedPairs []Pair
	// IncludeExtremalPair adds a two-sweep (approximately diametral) pair to
	// the sampled pairs, which sharpens the greedy-diameter estimate since
	// the diameter is a maximum over pairs.  Default true when sampling.
	IncludeExtremalPair bool
	// DistSource, when non-nil, supplies O(1) point-to-point distances for
	// greedy routing (an analytic closed-form metric of a structured graph
	// family, see gen.MetricFor, or a 2-hop-cover oracle), as the caller
	// resolved it with dist.SourcePolicy.ResolveWith.  It takes
	// precedence over DistFields and avoids materialising any per-target
	// distance field, so memory per query stays O(1) even at n >= 10^6.
	// Unless ApproxSource is set, the source must satisfy the dist.Source
	// exactness invariant; results are then identical to BFS fields.
	DistSource dist.Source
	// ApproxSource declares that DistSource may disagree with BFS hop
	// distances — a churn repair oracle (dist.DynTwoHop) still carrying
	// debt.  Routing then scans every neighbour on every hop instead of
	// stopping at the first one hop closer (route.Options.Exact), so the
	// steering matches what the stale distances dictate.
	ApproxSource bool
	// DistFields, when non-nil, supplies the per-target distance fields
	// greedy routing steers by.  It must be a cache over the same graph.
	// When nil (and DistSource is nil) a private cache is created per
	// estimation run; the scenario runner and CompareSchemes share one
	// cache per graph, so each target's BFS is paid once rather than once
	// per scheme.  Fields are deterministic, so sharing never affects
	// results.
	DistFields *dist.FieldCache
	// TargetCI, when positive, switches the run to streaming adaptive
	// estimation: each pair keeps running deterministic trial batches until
	// the 95% CI half-width of its mean step count is at most
	// TargetCI·max(1, mean), or the pair has spent MaxTrials trials.
	TargetCI float64
	// MaxTrials caps the per-pair budget in adaptive mode
	// (default 32·Trials).  Ignored in fixed-budget mode.
	MaxTrials int
}

func (c Config) withDefaults() Config {
	if c.Pairs <= 0 {
		c.Pairs = 16
	}
	if c.Trials <= 0 {
		c.Trials = 8
	}
	return c
}

// PairStats aggregates the routing trials of one source/target pair.
type PairStats struct {
	Pair          Pair
	Dist          int32 // graph distance between the endpoints
	Steps         stats.Summary
	MeanLongLinks float64
	Failed        int // trials that hit the step cap (should be zero)
	// Unreachable marks a pair whose target is in a different component
	// (Dist == graph.Unreachable).  Such pairs run no trials and are
	// reported, never silently resampled and never an error: disconnection
	// is an expected outcome on churned graphs (see the contract in
	// internal/graph/ops.go).
	Unreachable bool
}

// Estimate is the outcome of a greedy-diameter estimation.
type Estimate struct {
	Scheme    string
	GraphName string
	N, M      int
	PairStats []PairStats
	// MeanSteps is the grand mean over per-pair means.
	MeanSteps float64
	// GreedyDiameter is the Monte Carlo estimate of diam(G, φ): the maximum
	// over sampled pairs of the per-pair mean number of steps.
	GreedyDiameter float64
	// CI95 is the half-width of the 95% confidence interval of MeanSteps.
	CI95 float64
	// MeanLongLinks is the average number of long-range hops per route.
	MeanLongLinks float64
	// Samples is the total number of routed trials across all pairs.
	Samples int
	// Unreachable counts sampled pairs whose endpoints are disconnected.
	// They contribute to no mean: routing is only defined within a
	// component, and the count itself is the degradation signal.
	Unreachable int
	// Adaptive records whether the streaming adaptive schedule was used,
	// and TargetCI the relative CI target it ran against.
	Adaptive bool
	TargetCI float64
}

// EstimateGreedyDiameter runs the Monte Carlo estimation of the greedy
// diameter of g under the given scheme on a transient engine.
func EstimateGreedyDiameter(g *graph.Graph, scheme augment.Scheme, cfg Config) (*Estimate, error) {
	e := NewEngine(cfg.Workers)
	defer e.Close()
	return e.Estimate(g, scheme, cfg)
}

// selectPairs picks the source/target pairs for an estimation run.
func selectPairs(g *graph.Graph, cfg Config) ([]Pair, error) {
	if len(cfg.FixedPairs) > 0 {
		for _, p := range cfg.FixedPairs {
			if int(p.Source) < 0 || int(p.Source) >= g.N() || int(p.Target) < 0 || int(p.Target) >= g.N() {
				return nil, fmt.Errorf("sim: fixed pair (%d,%d) out of range", p.Source, p.Target)
			}
		}
		return append([]Pair(nil), cfg.FixedPairs...), nil
	}
	rng := xrand.New(cfg.Seed ^ 0x5eed5eed5eed5eed)
	pairs := make([]Pair, 0, cfg.Pairs)
	if cfg.IncludeExtremalPair && cfg.Pairs >= 2 {
		s, t, _ := dist.ExtremalPair(g)
		pairs = append(pairs, Pair{Source: s, Target: t})
	}
	const maxResample = 64
	for len(pairs) < cfg.Pairs {
		var p Pair
		ok := false
		for attempt := 0; attempt < maxResample; attempt++ {
			s := graph.NodeID(rng.Intn(g.N()))
			t := graph.NodeID(rng.Intn(g.N()))
			if s == t {
				continue
			}
			p = Pair{Source: s, Target: t}
			ok = true
			break
		}
		if !ok {
			return nil, fmt.Errorf("sim: could not sample distinct source/target pairs")
		}
		pairs = append(pairs, p)
	}
	return pairs, nil
}

// CompareSchemes estimates the greedy diameter of g under each scheme with
// the same configuration (and therefore the same sampled pairs), returning
// estimates in the order the schemes were given.  One engine and one
// distance-field cache are shared across the schemes.
func CompareSchemes(g *graph.Graph, schemes []augment.Scheme, cfg Config) ([]*Estimate, error) {
	e := NewEngine(cfg.Workers)
	defer e.Close()
	if cfg.DistSource == nil && cfg.DistFields == nil {
		cfg.DistFields = dist.NewFieldCache(g, 0)
	}
	out := make([]*Estimate, 0, len(schemes))
	for _, s := range schemes {
		est, err := e.Estimate(g, s, cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: scheme %s: %w", s.Name(), err)
		}
		out = append(out, est)
	}
	return out, nil
}

// SweepResult is one point of a size sweep.
type SweepResult struct {
	N        int
	Estimate *Estimate
}

// Sweep estimates the greedy diameter of scheme over a family of graphs
// produced by build for each size.  The per-size seeds are derived from
// cfg.Seed so the whole sweep is reproducible.
func Sweep(sizes []int, build func(n int) (*graph.Graph, error), scheme augment.Scheme, cfg Config) ([]SweepResult, error) {
	e := NewEngine(cfg.Workers)
	defer e.Close()
	out := make([]SweepResult, 0, len(sizes))
	for i, n := range sizes {
		g, err := build(n)
		if err != nil {
			return nil, fmt.Errorf("sim: building graph for n=%d: %w", n, err)
		}
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*0x9e3779b97f4a7c15
		// Every size is a different graph, so a caller-supplied field cache
		// must not leak across sizes; each estimation builds its own.
		c.DistFields = nil
		est, err := e.Estimate(g, scheme, c)
		if err != nil {
			return nil, fmt.Errorf("sim: n=%d: %w", n, err)
		}
		out = append(out, SweepResult{N: g.N(), Estimate: est})
	}
	return out, nil
}

// FitPower fits greedy diameter ≈ C·n^e over the sweep results.
func FitPower(results []SweepResult) (stats.PowerFit, error) {
	x := make([]float64, 0, len(results))
	y := make([]float64, 0, len(results))
	for _, r := range results {
		x = append(x, float64(r.N))
		y = append(y, r.Estimate.GreedyDiameter)
	}
	return stats.PowerLaw(x, y)
}
