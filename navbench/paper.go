package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"navaug/internal/experiments"
	"navaug/internal/scenario"
)

// paperIDs are the experiments the paper workload regenerates.  E12 is
// left out: at this scale it alone takes over a minute, and the sweep
// workload runs its large-n cell pipeline directly.
var paperIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E13"}

const (
	paperScale      = 0.25
	paperSmallScale = 0.02
)

// paperPass is one regeneration of the paper workload's tables.
type paperPass struct {
	wall   time.Duration
	stats  scenario.RunStats
	digest string
	// done is, per experiment, the time from the start of the pass until
	// its last cell finished.
	done map[string]time.Duration
}

// cellClock is the runner's progress writer: it notes when each
// experiment's latest cell finished.
type cellClock struct {
	start time.Time
	ids   map[string]bool
	mu    sync.Mutex
	last  map[string]time.Duration
}

func newCellClock() *cellClock {
	c := &cellClock{ids: map[string]bool{}}
	for _, id := range paperIDs {
		c.ids[id] = true
	}
	return c
}

func (c *cellClock) Write(p []byte) (int, error) {
	// Cell lines read "[ done/total elapsed] <ID> <family> ..."; oracle
	// lines carry a family where the ID would be and are skipped.
	line := string(p)
	if i := strings.Index(line, "] "); i >= 0 {
		if f := strings.Fields(line[i+2:]); len(f) > 0 && c.ids[f[0]] {
			c.mu.Lock()
			c.last[f[0]] = time.Since(c.start)
			c.mu.Unlock()
		}
	}
	return len(p), nil
}

// paperRun regenerates the tables once on a fresh runner, checks them, and
// counts every experiment as one attempted operation.
func paperRun(sc scenario.Config, specs []scenario.Spec, o *outcome, clock *cellClock) (paperPass, error) {
	var pass paperPass
	var results []scenario.SpecResult
	var runner *scenario.Runner
	d, _ := timed(func() error {
		if clock != nil {
			clock.start, clock.last = time.Now(), map[string]time.Duration{}
			sc.Progress = clock
		}
		runner = scenario.NewRunner(sc)
		results = runner.RunAll(specs)
		return nil
	})
	pass.wall = d
	pass.stats = runner.Stats()
	runner.Close()
	if clock != nil {
		pass.done = clock.last
	}

	h := sha256.New()
	for _, res := range results {
		o.attempted++
		if res.Err != nil {
			o.failed++
			o.checkf(false, "paper: %s: %v", res.Spec.ID, res.Err)
			continue
		}
		o.checkf(len(res.Tables) > 0, "paper: %s rendered no table", res.Spec.ID)
		for _, t := range res.Tables {
			o.checkf(len(t.Rows) > 0, "paper: %s: table %q is empty", res.Spec.ID, t.Title)
			if err := t.RenderCSV(h); err != nil {
				return pass, fmt.Errorf("hashing %s: %w", res.Spec.ID, err)
			}
		}
	}
	pass.digest = hex.EncodeToString(h.Sum(nil))
	return pass, nil
}

// runPaper times the regeneration of the E1–E10 and E13 tables, the path
// `navsim run` takes to reproduce the paper.  Every pass starts a fresh
// runner, so no artefact is reused across passes, and every pass must give
// byte-identical tables.  Untraced, the first pass in the process is the
// set-up (a cold process: heap growth and the first use of every code
// path, which a reader pays on every run) and the passes after it are
// timed.  Traced, an untraced pass and a traced pass run back to back.
func runPaper(cfg config) (*outcome, error) {
	var specs []scenario.Spec
	for _, id := range paperIDs {
		spec, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("experiment %s is not registered", id)
		}
		specs = append(specs, spec)
	}
	sc := scenario.Config{Seed: cfg.seed, Scale: paperScale, Workers: cfg.workers, Parallel: cfg.workers}
	if cfg.small {
		sc.Scale = paperSmallScale
	}
	o := newOutcome()

	before := readMem()
	first, err := paperRun(sc, specs, o, nil)
	if err != nil {
		return nil, err
	}
	recordRuntime(o, before, readMem())
	passes := []paperPass{first}
	if cfg.trace {
		clock := newCellClock()
		traced, err := paperRun(sc, specs, o, clock)
		if err != nil {
			return nil, err
		}
		passes = append(passes, traced)
		if err := paperLayers(o, cfg, clock.start, first, traced); err != nil {
			return nil, err
		}
	} else {
		o.metrics["setup_s"] = first.wall.Seconds()
		var rates []float64
		walls, err := repeat(secondsDuration(cfg.seconds), func() (time.Duration, error) {
			p, err := paperRun(sc, specs, o, nil)
			passes = append(passes, p)
			rates = append(rates, float64(p.stats.Trials)/p.wall.Seconds())
			return p.wall, err
		})
		if err != nil {
			return nil, err
		}
		o.metrics["wall_s"] = median(walls)
		o.metrics["route_qps"] = median(rates)
		o.metrics["peak_rss_mb"] = peakRSSMB()
		logPasses(cfg, "paper", []float64{first.wall.Seconds()}, walls)
	}

	for _, p := range passes[1:] {
		o.checkf(p.digest == first.digest, "paper: tables differ between passes (%s vs %s)", p.digest, first.digest)
		o.checkf(p.stats.Trials == first.stats.Trials, "paper: trial count differs between passes")
	}
	fmt.Fprintf(cfg.log, "paper: seed %d, %d experiments x %d passes, tables sha256 %s\n",
		cfg.seed, len(specs), len(passes), first.digest)
	return o, nil
}

// paperLayers records the traced pass's spans and per-layer metrics: per
// experiment, the time from the start of the pass until its last cell
// finished (experiments share the runner and interleave their cells), and
// the runner's work and sharing counters.
func paperLayers(o *outcome, cfg config, start time.Time, plain, traced paperPass) error {
	tr := newTracer()
	root := tr.record("scenario.RunAll", nil, start, start.Add(traced.wall))
	for _, id := range paperIDs {
		o.metrics["scenario."+id+"_s"] = traced.done[id].Seconds()
		tr.record("scenario."+id, root, start, start.Add(traced.done[id]))
	}
	st := traced.stats
	o.metrics["scenario.cells"] = float64(st.Cells)
	o.metrics["scenario.trials"] = float64(st.Trials)
	if st.GraphLookups > 0 {
		o.metrics["scenario.graph_reuse"] = 1 - float64(st.GraphsBuilt)/float64(st.GraphLookups)
	}
	if st.InstLookups > 0 {
		o.metrics["scenario.prepare_reuse"] = 1 - float64(st.Prepares)/float64(st.InstLookups)
	}
	o.metrics["trace.overhead_s"] = (traced.wall - plain.wall).Seconds()
	o.metrics["runtime.peak_rss_mb"] = peakRSSMB()
	return tr.writeFile(cfg.spans)
}
