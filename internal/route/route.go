// Package route implements the oblivious greedy routing process of the
// paper: at every intermediate node the message is forwarded to the
// neighbour (local neighbours plus the node's own long-range contact) that
// is closest to the target according to distances in the underlying graph.
//
// Distances to the target are read through a dist.Source: an analytic
// closed-form metric (structured families, O(1) per query with no
// per-target state, which is what permits million-node graphs), an exact
// 2-hop-cover oracle (dist.TwoHop, raw or packed, and dist.DynTwoHop at
// zero repair debt), a BFS distance field wrapped via dist.NewField, or an
// approximate tier (landmark upper bounds, a repair oracle carrying debt)
// when serving degrades.  Options.Exact is the caller's declaration that
// the source is one of the exact tiers; it lets each step stop scanning
// neighbours at the first one that is one hop closer (see greedyStep).
//
// Long-range contacts are drawn lazily and memoised per trial so that each
// node keeps one consistent contact while only paying for the nodes
// actually visited.  The memo lives in a Scratch — a dense epoch-marked
// buffer that resets in O(1) — so a worker that reuses one Scratch across
// trials routes without any per-trial allocation.
package route

import (
	"fmt"

	"navaug/internal/augment"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/sampler"
	"navaug/internal/xrand"
)

// Result describes a single greedy routing trial.
type Result struct {
	// Steps is the number of hops taken (0 when source == target).
	Steps int
	// LongLinksUsed counts the hops that traversed a long-range link.
	LongLinksUsed int
	// Reached reports whether the target was reached within the step cap.
	Reached bool
	// Path is the visited node sequence including source and target.  It is
	// only populated when tracing is requested.
	Path []graph.NodeID
}

// Scratch is reusable per-trial state for routing: the per-node contact
// memo, epoch-marked so a reset costs O(1).  A Scratch is not safe for
// concurrent use; keep one per worker and pass it through Options.  Reuse
// across trials is what makes a routing trial allocation-free.
type Scratch struct {
	memo *sampler.EpochMemo
}

// NewScratch returns a Scratch for routing on graphs with n nodes.
func NewScratch(n int) *Scratch {
	return &Scratch{memo: sampler.NewEpochMemo(n)}
}

// contact returns the memoised long-range contact of u, drawing it on
// first use within the current trial.
func (s *Scratch) contact(inst augment.Instance, u graph.NodeID, rng *xrand.RNG) graph.NodeID {
	if c, ok := s.memo.Get(u); ok {
		return c
	}
	c := inst.Contact(u, rng)
	s.memo.Set(u, c)
	return c
}

// Options tune a routing trial.
type Options struct {
	// MaxSteps caps the number of hops (0 means 4·n, which greedy routing
	// can never legitimately exceed because each hop strictly decreases the
	// distance to the target).
	MaxSteps int
	// Trace records the full visited path in the Result.
	Trace bool
	// Scratch, when non-nil, supplies the reusable trial state; it must have
	// been built for a graph of the same size.  When nil a fresh Scratch is
	// allocated for the trial (convenient, but the hot path — the Monte
	// Carlo worker pool — always passes one per worker).
	Scratch *Scratch
	// Exact declares that the distance source answers true hop distances
	// (the dist.Source exactness invariant), so every neighbour of a node
	// at distance d from the target lies at d-1, d or d+1.  Each step then
	// stops its neighbour scan at the first neighbour at d-1, which is the
	// node the full scan would pick.  Results are identical either way;
	// only the number of distance queries drops.  Leave it unset for
	// approximate sources (landmark bounds, a dist.DynTwoHop with repair
	// debt): there the early exit can pick a different neighbour.
	Exact bool
}

// validate checks the endpoints and distance source shared by both routing
// variants, and resolves the trial scratch.  It returns d(s, t), which
// seeds the distance carried from hop to hop.
func validate(g *graph.Graph, s, t graph.NodeID, src dist.Source, opts Options) (*Scratch, int32, error) {
	n := g.N()
	if int(s) < 0 || int(s) >= n || int(t) < 0 || int(t) >= n {
		return nil, 0, fmt.Errorf("route: endpoints (%d,%d) out of range [0,%d)", s, t, n)
	}
	if src == nil {
		return nil, 0, fmt.Errorf("route: nil distance source")
	}
	// Sources that know their node count (dist.Field, the analytic family
	// metrics) are checked against the graph up front: a mis-sized source
	// would otherwise index out of range (fields) or silently report wrong
	// distances (metrics) mid-route.
	if s, ok := src.(interface{ N() int }); ok && s.N() != n {
		return nil, 0, fmt.Errorf("route: distance source covers %d nodes, graph has %d", s.N(), n)
	}
	if src.Dist(t, t) != 0 {
		return nil, 0, fmt.Errorf("route: distance source is not rooted at target %d", t)
	}
	dst := src.Dist(s, t)
	if dst == graph.Unreachable {
		return nil, 0, fmt.Errorf("route: target %d unreachable from source %d", t, s)
	}
	scratch := opts.Scratch
	if scratch == nil {
		scratch = NewScratch(n)
	} else if scratch.memo.Len() != n {
		return nil, 0, fmt.Errorf("route: scratch was built for %d nodes, graph has %d", scratch.memo.Len(), n)
	}
	scratch.memo.Reset()
	return scratch, dst, nil
}

// Greedy routes a message from s to t on graph g augmented by the given
// instance, steering by src.Dist(v, t) = dist_G(v, t) — an analytic metric
// or a BFS field wrapped with dist.NewField.  The rng drives the lazy
// long-range contact draws.  It returns an error for invalid endpoints, a
// source not rooted at the target or with an unreachable source node, or a
// mis-sized scratch.
func Greedy(g *graph.Graph, inst augment.Instance, s, t graph.NodeID, src dist.Source, rng *xrand.RNG, opts Options) (Result, error) {
	scratch, curDist, err := validate(g, s, t, src, opts)
	if err != nil {
		return Result{}, err
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 4*g.N() + 16
	}

	res := Result{}
	if opts.Trace {
		res.Path = append(res.Path, s)
	}
	cur := s
	for cur != t {
		if res.Steps >= maxSteps {
			return res, nil // Reached stays false
		}
		next, nextDist, viaLong := greedyStep(g, inst, scratch, cur, t, curDist, src, rng, opts.Exact)
		if next == cur {
			// No neighbour (nor the contact) improves on cur.  With an
			// exact distance source this cannot happen on a reachable
			// pair — some neighbour lies on a shortest path — so this is
			// the approximate-steering case (landmark upper bounds can
			// plateau).  Burning the remaining step budget in place would
			// change nothing; stop with Reached false.
			return res, nil
		}
		if viaLong {
			res.LongLinksUsed++
		}
		cur, curDist = next, nextDist
		res.Steps++
		if opts.Trace {
			res.Path = append(res.Path, cur)
		}
	}
	res.Reached = true
	return res, nil
}

// greedyStep picks the neighbour of cur (including its long-range contact)
// closest to the target; ties prefer local links and then lower node ids,
// which keeps the process deterministic given the drawn contacts.  curDist
// is d(cur, t), carried from the previous hop; the chosen node's distance
// is returned so the caller can carry it into the next one.
//
// With exact distances no neighbour is closer than curDist-1, and
// adjacency lists are strictly increasing, so the first neighbour at
// curDist-1 is the one the full scan would settle on: the scan stops
// there.  The contact is still drawn and queried, because it wins only
// when strictly closer.
func greedyStep(g *graph.Graph, inst augment.Instance, scratch *Scratch, cur, t graph.NodeID, curDist int32, src dist.Source, rng *xrand.RNG, exact bool) (graph.NodeID, int32, bool) {
	best := cur
	bestDist := curDist
	viaLong := false
	for _, v := range g.Neighbors(cur) {
		d := src.Dist(v, t)
		if d == graph.Unreachable {
			continue
		}
		if d < bestDist || (d == bestDist && v < best) {
			best = v
			bestDist = d
			if exact && d == curDist-1 {
				break
			}
		}
	}
	if c := scratch.contact(inst, cur, rng); c != cur {
		d := src.Dist(c, t)
		if d != graph.Unreachable && d < bestDist {
			best = c
			bestDist = d
			viaLong = true
		}
	}
	return best, bestDist, viaLong
}

// GreedyWithLookahead is the "know thy neighbour's neighbour" extension
// mentioned in the paper's related work [16]: the routing decision also
// considers the long-range contacts of the current node's local neighbours
// (one hop of lookahead), forwarding towards the neighbour whose own contact
// is closest to the target when that beats every direct option.  The
// traversal still advances one edge per step, so the step count remains
// comparable with plain greedy routing.
func GreedyWithLookahead(g *graph.Graph, inst augment.Instance, s, t graph.NodeID, src dist.Source, rng *xrand.RNG, opts Options) (Result, error) {
	scratch, curDist, err := validate(g, s, t, src, opts)
	if err != nil {
		return Result{}, err
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 4*g.N() + 16
	}
	res := Result{}
	if opts.Trace {
		res.Path = append(res.Path, s)
	}
	cur := s
	for cur != t {
		if res.Steps >= maxSteps {
			return res, nil
		}
		// Direct greedy candidate.
		next, nextDist, nextViaLong := greedyStep(g, inst, scratch, cur, t, curDist, src, rng, opts.Exact)
		// Lookahead: neighbour whose own long-range contact is closest.
		// Every neighbour's contact is drawn, in adjacency order, whatever
		// the direct step found, so the contact RNG stream does not depend
		// on Options.Exact.
		bestVia := graph.NodeID(-1)
		var bestViaDist, bestViaOwn int32
		for _, v := range g.Neighbors(cur) {
			dv := src.Dist(v, t)
			if dv == graph.Unreachable {
				continue
			}
			c := scratch.contact(inst, v, rng)
			d := src.Dist(c, t)
			if d == graph.Unreachable {
				continue
			}
			if bestVia == -1 || d < bestViaDist {
				bestVia = v
				bestViaDist = d
				bestViaOwn = dv
			}
		}
		// Move towards the lookahead neighbour only when its contact is
		// strictly better than anything reachable directly; the hop itself is
		// a local link.
		if bestVia != -1 && bestViaDist < nextDist && bestViaDist < curDist {
			next, nextDist, nextViaLong = bestVia, bestViaOwn, false
		}
		if next == cur {
			return res, nil // stuck under approximate steering; see Greedy
		}
		if nextViaLong {
			res.LongLinksUsed++
		}
		cur, curDist = next, nextDist
		res.Steps++
		if opts.Trace {
			res.Path = append(res.Path, cur)
		}
	}
	res.Reached = true
	return res, nil
}
