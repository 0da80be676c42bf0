package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"navaug/internal/core"
	"navaug/internal/dist"
	"navaug/internal/graph"
	"navaug/internal/route"
	"navaug/internal/serve"
	"navaug/internal/snapshot"
	"navaug/internal/xrand"
)

const (
	serveFamily     = "powerlaw"
	serveN          = 1 << 16
	serveSmallN     = 1 << 10
	serveScheme     = "uniform"
	serveBatch      = 256
	serveRoutes     = 2400
	serveDistBatchs = 800
	serveTargets    = 32
	// Request headers carrying a traced request's id and client span to
	// the server-side middleware.
	reqHeader  = "X-Navbench-Req"
	spanHeader = "X-Navbench-Span"
)

// serveSetup is one built-and-started service.
type serveSetup struct {
	snap   *snapshot.Snapshot
	build  *core.SnapshotBuildStats
	bytes  int
	srv    *serve.Server
	ts     *httptest.Server
	mw     *middleware
	phases map[string]time.Duration
}

func (s *serveSetup) close() {
	s.ts.Close()
	s.srv.Close()
}

// startServe builds the powerlaw snapshot of E12's own graph with the
// auto (packed 2-hop) tier and uniform contacts frozen, encodes it, loads
// the bytes back, and serves the loaded snapshot on a loopback listener.
func startServe(cfg config, tr *tracer) (*serveSetup, error) {
	n := serveN
	if cfg.small {
		n = serveSmallN
	}
	s := &serveSetup{phases: map[string]time.Duration{}}
	root := tr.start("serve.setup", nil, 0)
	defer root.end()
	phase := func(name string, fn func() error) error {
		sp := tr.start(name, root, 0)
		err := fn()
		s.phases[name] = sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var built *snapshot.Snapshot
	var raw []byte
	err := phase("core.BuildSnapshot", func() (err error) {
		built, s.build, err = core.BuildSnapshot(core.SnapshotOptions{
			Family: serveFamily, N: n, Seed: graphSeed,
			Schemes: []string{serveScheme}, Draws: 1, Oracle: dist.PolicyAuto,
		})
		return err
	})
	if err == nil {
		err = phase("snapshot.encode", func() (err error) {
			raw, err = built.Bytes()
			return err
		})
	}
	if err == nil {
		err = phase("snapshot.load", func() (err error) {
			s.snap, err = snapshot.ReadBytes(raw)
			return err
		})
	}
	if err == nil {
		err = phase("serve.new", func() (err error) {
			s.srv, err = serve.New(s.snap, serve.Options{Workers: cfg.workers})
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	s.bytes = len(raw)
	_ = phase("serve.listen", func() error {
		s.mw = &middleware{next: s.srv.Handler()}
		s.ts = httptest.NewServer(s.mw)
		return nil
	})
	return s, nil
}

// middleware records one span per request around the server's handler
// while a tracer is installed, and passes requests straight through
// otherwise.
type middleware struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := m.tr.Load()
	if tr == nil {
		m.next.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	sp := tr.start("serve.handler"+r.URL.Path, &span{id: parent, req: req}, req)
	m.next.ServeHTTP(w, r)
	sp.end()
}

// serveRequest is one prepared request of the closed loop.
type serveRequest struct {
	method, path string
	body         []byte
	// route: the expected answer; dist: the expected distances.
	want     routeAnswer
	wantDist []int32
}

// routeAnswer is the part of a /v1/route answer the check compares.
type routeAnswer struct {
	Dist      int32  `json:"dist"`
	Steps     int    `json:"steps"`
	LongLinks int    `json:"long_links"`
	Reached   bool   `json:"reached"`
	Approx    bool   `json:"approx"`
	Error     string `json:"error"`
}

// serveInputs generates the request lists from the seed and computes
// their expected answers in-process: each route with route.Greedy on the
// loaded snapshot's frozen table and distance tier (a counting wrapper
// tallies its distance queries), each distance from a BFS field.
func serveInputs(cfg config, s *serveSetup, o *outcome) (routes, dists []serveRequest, err error) {
	g := s.snap.Graph
	n := g.N()
	rng := xrand.New(cfg.seed ^ 0x5e7e)
	nRoutes, nBatches := serveRoutes, serveDistBatchs
	if cfg.small {
		nRoutes, nBatches = 64, 8
	}
	table, err := s.snap.Schemes[0].Instance(0)
	if err != nil {
		return nil, nil, err
	}
	var calls leafStats
	src := traceSource(s.snap.Source(), &calls)
	// Frozen tables ignore the contact RNG; route.Greedy still wants one.
	routeRNG := xrand.New(1)
	scratch := route.NewScratch(n)
	var steps, longLinks float64
	for i := 0; i < nRoutes; i++ {
		from, to := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		res, err := route.Greedy(g, table, from, to, src, routeRNG, route.Options{Scratch: scratch})
		if err != nil {
			return nil, nil, fmt.Errorf("in-process route %d->%d: %w", from, to, err)
		}
		routes = append(routes, serveRequest{
			method: http.MethodGet,
			path:   fmt.Sprintf("/v1/route?s=%d&t=%d&scheme=%s", from, to, serveScheme),
			want:   routeAnswer{Dist: s.snap.Source().Dist(from, to), Steps: res.Steps, LongLinks: res.LongLinksUsed, Reached: res.Reached},
		})
		steps += float64(res.Steps)
		longLinks += float64(res.LongLinksUsed)
	}
	c, _ := calls.totals()
	o.metrics["dist.calls_per_route"] = float64(c) / float64(nRoutes)
	o.metrics["route.steps_per_route"] = steps / float64(nRoutes)
	o.metrics["route.long_links_per_route"] = longLinks / float64(nRoutes)

	fields := make([][]int32, serveTargets)
	targets := make([]graph.NodeID, serveTargets)
	for k := range targets {
		targets[k] = graph.NodeID(rng.Intn(n))
		fields[k] = g.BFS(targets[k])
	}
	for b := 0; b < nBatches; b++ {
		pairs := make([][2]int32, serveBatch)
		want := make([]int32, serveBatch)
		for i := range pairs {
			k := rng.Intn(serveTargets)
			u := graph.NodeID(rng.Intn(n))
			pairs[i] = [2]int32{u, targets[k]}
			want[i] = fields[k][u]
		}
		body, err := json.Marshal(map[string]any{"pairs": pairs})
		if err != nil {
			return nil, nil, err
		}
		dists = append(dists, serveRequest{method: http.MethodPost, path: "/v1/dist", body: body, wantDist: want})
	}
	return routes, dists, nil
}

// loopResult is one closed-loop phase: its wall time, each request's
// client-side latency, and the failures seen.
type loopResult struct {
	wall      time.Duration
	latencies []float64 // ms, by request
	failed    int64
	problems  []string
}

// serveClient sends requests to one running service over at most one
// connection per worker.
type serveClient struct {
	base      string
	transport *http.Transport
	http      *http.Client
}

func newServeClient(s *serveSetup, workers int) *serveClient {
	t := &http.Transport{MaxIdleConnsPerHost: workers, DisableCompression: true}
	return &serveClient{base: s.ts.URL, transport: t, http: &http.Client{Transport: t}}
}

func (c *serveClient) close() { c.transport.CloseIdleConnections() }

// closedLoop sends reqs over `workers` connections, each sending its next
// request only after the previous answer arrived, and checks every answer.
func closedLoop(client *serveClient, workers int, reqs []serveRequest, tr *tracer, name string, firstReq int64) loopResult {
	res := loopResult{latencies: make([]float64, len(reqs))}
	var next atomic.Int64
	var mu sync.Mutex
	// problem notes a wrong answer, or with failed a request that got
	// no 200 answer at all.
	problem := func(failed bool, format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if failed {
			res.failed++
		}
		if len(res.problems) < 5 {
			res.problems = append(res.problems, fmt.Sprintf(format, args...))
		}
	}
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				rq := &reqs[i]
				req, err := http.NewRequest(rq.method, client.base+rq.path, bytes.NewReader(rq.body))
				if err != nil {
					problem(true, "%s %d: %v", name, i, err)
					continue
				}
				var sp *span
				if tr != nil {
					sp = tr.start(name, nil, firstReq+i)
					req.Header.Set(reqHeader, strconv.FormatInt(firstReq+i, 10))
					req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
				}
				t0 := time.Now()
				resp, err := client.http.Do(req)
				if err != nil {
					problem(true, "%s %d: %v", name, i, err)
					continue
				}
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				res.latencies[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				if sp != nil {
					sp.end()
				}
				if err != nil || resp.StatusCode != http.StatusOK {
					problem(true, "%s %d: status %d, %v", name, i, resp.StatusCode, err)
					continue
				}
				if msg := checkAnswer(rq, buf.Bytes()); msg != "" {
					problem(false, "%s %d: %s", name, i, msg)
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// checkAnswer compares one response body with the request's expected
// answer; "" means it matches.
func checkAnswer(rq *serveRequest, body []byte) string {
	if rq.wantDist != nil {
		var got struct {
			Dists  []int32 `json:"dists"`
			Approx bool    `json:"approx"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err.Error()
		}
		if got.Approx || len(got.Dists) != len(rq.wantDist) {
			return fmt.Sprintf("approx=%v, %d of %d distances", got.Approx, len(got.Dists), len(rq.wantDist))
		}
		for i, d := range got.Dists {
			if d != rq.wantDist[i] {
				return fmt.Sprintf("pair %d: distance %d, BFS says %d", i, d, rq.wantDist[i])
			}
		}
		return ""
	}
	var got struct {
		Result routeAnswer `json:"result"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err.Error()
	}
	if got.Result != rq.want {
		return fmt.Sprintf("answer %+v, in-process route.Greedy gives %+v", got.Result, rq.want)
	}
	return ""
}

// servePass is one pass of the traffic: the route phase, then the dist
// phase.
type servePass struct {
	route, dist loopResult
}

func (p servePass) wall() time.Duration { return p.route.wall + p.dist.wall }

// runServePass sends one pass of the traffic; with a tracer, requests get
// ids from firstReq on.
func runServePass(cfg config, client *serveClient, routes, dists []serveRequest, o *outcome, tr *tracer, firstReq int64) servePass {
	p := servePass{
		route: closedLoop(client, cfg.workers, routes, tr, "client.route", firstReq),
		dist:  closedLoop(client, cfg.workers, dists, tr, "client.dist", firstReq+int64(len(routes))),
	}
	for _, l := range []loopResult{p.route, p.dist} {
		o.attempted += int64(len(l.latencies))
		o.failed += l.failed
		for _, msg := range l.problems {
			o.checkf(false, "serve: %s", msg)
		}
	}
	return p
}

// runServe times the routing service: set-up builds, encodes and loads a
// snapshot and starts the server; a pass sends a fixed list of single
// GET /v1/route requests and then a fixed list of POST /v1/dist batches,
// each in a closed loop over one connection per CPU.  Untraced, the run
// sets up three times and times a block of passes on each service, so
// that its samples spread over the whole run; the snapshot is
// deterministic, so every service must give the same answers.
func runServe(cfg config) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	setups := 3
	if cfg.trace {
		tr = newTracer()
		setups = 1
	}
	var s *serveSetup
	var client *serveClient
	defer func() {
		if s != nil {
			client.close()
			s.close()
		}
	}()
	var routes, dists []serveRequest
	var setupTimes, walls, rates []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			client.close()
			s.close()
			s = nil
		}
		freeMemory()
		d, err := timed(func() (err error) {
			s, err = startServe(cfg, tr)
			return err
		})
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		client = newServeClient(s, cfg.workers)
		if i == 0 {
			if routes, dists, err = serveInputs(cfg, s, o); err != nil {
				return nil, err
			}
		}
		// A warm-up pass opens the connections and settles the server.
		runServePass(cfg, client, routes, dists, o, nil, 0)
		if cfg.trace {
			break
		}
		w, err := repeat(secondsDuration(cfg.seconds/float64(setups)), func() (time.Duration, error) {
			p := runServePass(cfg, client, routes, dists, o, nil, 0)
			rates = append(rates, float64(len(routes))/p.route.wall.Seconds())
			return p.wall(), nil
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
		logPasses(cfg, "serve", setupTimes, walls)
		return o, nil
	}

	// Untraced and traced passes alternate; the tracing overhead is the
	// difference of their median times.  Client-side latencies come from
	// the untraced passes, handler times from the traced ones.
	var plainWalls, tracedWalls, distRates, routeLat, distLat []float64
	for k := 0; k < 3; k++ {
		before := readMem()
		plain := runServePass(cfg, client, routes, dists, o, nil, 0)
		if k == 0 {
			recordRuntime(o, before, readMem())
		}
		s.mw.tr.Store(tr)
		traced := runServePass(cfg, client, routes, dists, o, tr, int64(k*(len(routes)+len(dists))+1))
		s.mw.tr.Store(nil)
		plainWalls = append(plainWalls, plain.wall().Seconds())
		tracedWalls = append(tracedWalls, traced.wall().Seconds())
		distRates = append(distRates, float64(len(dists)*serveBatch)/plain.dist.wall.Seconds())
		routeLat = append(routeLat, plain.route.latencies...)
		distLat = append(distLat, plain.dist.latencies...)
	}
	o.metrics["trace.overhead_s"] = median(tracedWalls) - median(plainWalls)

	o.metrics["graph.gen_s"] = s.build.GraphBuild.Seconds()
	o.metrics["core.oracle_build_s"] = s.build.OracleBuild.Seconds()
	o.metrics["dist.label_build_s"] = s.build.OracleBuild.Seconds()
	o.metrics["core.schemes_prepare_s"] = s.build.SchemesPrepare.Seconds()
	if th := s.snap.TwoHop; th != nil {
		o.metrics["dist.label_entries"] = float64(th.Entries())
		o.metrics["dist.label_mb"] = float64(th.MemoryBytes()) / 1e6
	}
	o.metrics["snapshot.encode_s"] = s.phases["snapshot.encode"].Seconds()
	o.metrics["snapshot.mb"] = float64(s.bytes) / 1e6
	o.metrics["snapshot.load_s"] = s.phases["snapshot.load"].Seconds()
	o.metrics["serve.new_s"] = s.phases["serve.new"].Seconds()
	o.metrics["dist.query_ns"] = queryNs(cfg.seed, s.snap.Graph.N(), s.snap.Source())

	o.metrics["serve.route_p50_ms"] = quantile(routeLat, 0.5)
	o.metrics["serve.route_p99_ms"] = quantile(routeLat, 0.99)
	o.metrics["serve.route_samples"] = float64(len(routeLat))
	o.metrics["serve.dist_qps"] = median(distRates)
	o.metrics["serve.dist_p50_ms"] = quantile(distLat, 0.5)
	o.metrics["serve.dist_p99_ms"] = quantile(distLat, 0.99)
	o.metrics["serve.dist_samples"] = float64(len(distLat))
	for name, path := range map[string]string{"route": "/v1/route", "dist": "/v1/dist"} {
		var ms []float64
		for _, d := range tr.durations("serve.handler" + path) {
			ms = append(ms, float64(d.Nanoseconds())/1e6)
		}
		o.metrics["serve.handler_"+name+"_p50_ms"] = quantile(ms, 0.5)
	}
	o.metrics["runtime.peak_rss_mb"] = peakRSSMB()
	if err := tr.writeFile(cfg.spans); err != nil {
		return nil, err
	}
	return o, nil
}
