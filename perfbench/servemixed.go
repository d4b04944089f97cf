package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/baseline"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/server"
)

const serveMixedWhy = "in-process server, default config, open loop at 100 req/s: topk:4 and mutate:1 from ROADMAP's trace, sampled:3 from DefaultCohorts, exact:1 chosen; 79% cache hits, 93% of mutations recompute fully"

// serve-mixed settings. Latency is measured at refRate, well below the
// knee. The knee search (traced runs only) bisects offered rates between
// refRate and kneeHi and counts a probe as meeting the SLO when at least
// sloGood of its requests succeed within sloMS of their scheduled time;
// failures and refusals count as misses, and a probe stops early once it
// has missed more.
const (
	refRate        = 100.0
	traceHorizon   = 3 * time.Second
	kneeHi         = 1600.0
	kneeProbes     = 6
	kneeHorizon    = 2 * time.Second
	sloMS          = 250.0
	sloGood        = 0.99
	maxInflight    = 256
	// serveSetups windows of serveSetupsPer set-ups are timed before the
	// reference step and as many after it (setupTimer).
	serveSetups    = 5
	serveSetupsPer = 8
	// lagLimitMS is how late the generator may dispatch at the reference
	// rate before the run is declared invalid: the generator, not the
	// server, would then set the latency.
	lagLimitMS = 50.0
)

// serveCohorts is the traffic mix, built from the repository's recorded
// traffic where it has one:
//   - readers (topk, 4) and writers (mutate, 1), uniform over the graphs:
//     the traced sync-write run ROADMAP.md records
//     (-cohorts readers=topk:4,writers=mutate:1);
//   - dashboards (sampled, 3 per writer, zipf popularity): the share and
//     popularity of load.DefaultCohorts' dashboards (5/3/1);
//   - exact (1 per writer, uniform): no recorded traffic has exact readers;
//     this weight is the benchmark's choice, so that the exact-query path
//     runs beside the others.
func serveCohorts() []load.CohortSpec {
	return []load.CohortSpec{
		{Name: "readers", Kind: "topk", Weight: 4},
		{Name: "exact", Kind: "exact", Weight: 1},
		{Name: "dashboards", Kind: "sampled", Weight: 3, Popularity: "zipf"},
		{Name: "writers", Kind: "mutate", Weight: 1},
	}
}

// serveSpecs are the served graphs: hot=grid:8x8 with weights 1–5 and
// warm=uniform:48x160. They are the service's fixed data set; the run
// seed draws the request trace.
func serveSpecs() []struct {
	name string
	spec server.GraphSpec
} {
	return []struct {
		name string
		spec server.GraphSpec
	}{
		{"hot", server.GraphSpec{Kind: "grid", Rows: 8, Cols: 8, MaxWeight: 5, Seed: graphSeed}},
		{"warm", server.GraphSpec{Kind: "uniform", N: 48, M: 160, Seed: graphSeed + 1}},
	}
}

// service is one in-process server and its HTTP handler.
type service struct {
	srv *server.Server
	mux http.Handler
}

// newService builds the server and registers the graphs, then finishes
// the lazy set-up a deployment pays once per graph before taking traffic:
// the first exact BC, which fills the cache, and the dynamic engine, which
// the first mutation creates (here a batch that rewrites one edge's weight
// to its own value, so the graph does not change).
func newService(tr *obs.Tracer) (*service, error) {
	srv := server.New(server.Config{Workers: 1, Tracer: tr})
	svc := &service{srv: srv, mux: server.NewMux(srv)}
	for _, g := range serveSpecs() {
		info, err := srv.GenerateGraph(g.name, g.spec)
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", g.name, err)
		}
		if _, err := srv.Query(server.QueryRequest{Graph: g.name}); err != nil {
			return nil, fmt.Errorf("warm %s: %w", g.name, err)
		}
		local, err := server.BuildGraph(g.spec)
		if err != nil {
			return nil, err
		}
		if repro.Fingerprint(local) != info.Version {
			return nil, wrongf("%s: server graph differs from its spec", g.name)
		}
		e := local.Edges[0]
		if _, err := srv.Mutate(g.name, []repro.Mutation{{Op: repro.MutSetWeight, U: e.U, V: e.V, W: e.W}}); err != nil {
			return nil, fmt.Errorf("warm %s engine: %w", g.name, err)
		}
	}
	return svc, nil
}

// sample is one request as the generator saw it.
type sample struct {
	op     load.Op
	cohort string
	graph  string
	muts   []repro.Mutation
	lagMS  float64 // dispatch time minus scheduled time
	latMS  float64 // completion minus scheduled time
	svcMS  float64 // completion minus dispatch
	status int
	body   []byte // response body until decode
	// Query responses.
	hit, coalesced bool
	computeMS      float64
	// Mutate responses.
	mut *server.MutateResult
}

func (s sample) ok() bool { return s.status >= 200 && s.status < 300 }

// drive fires trace open-loop at its scheduled times, each request with
// its body from bodies: a request is dispatched when due whatever is
// outstanding, up to maxInflight at once; a request held back by that
// bound counts its wait as latency. With maxMiss > 0 it stops dispatching
// once more than maxMiss requests have failed or missed the SLO; the
// requests never sent are returned unsent (status 0) and count as misses.
// The responses are decoded later (sample.decode).
func (svc *service) drive(tr *obs.Tracer, trace []load.Request, bodies [][]byte, maxMiss int) []sample {
	samples := make([]sample, len(trace))
	for i := range trace {
		samples[i] = sample{op: trace[i].Op, cohort: trace[i].Cohort, graph: trace[i].Graph, latMS: math.Inf(1)}
	}
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	var missed atomic.Int64
	start := time.Now()
	for i := range trace {
		if maxMiss > 0 && missed.Load() > int64(maxMiss) {
			break
		}
		req := &trace[i]
		if d := req.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		lag := time.Since(start) - req.At
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			s := svc.do(tr, req, bodies[i])
			s.svcMS = ms(time.Since(t0))
			s.latMS = ms(time.Since(start) - req.At)
			s.lagMS = ms(lag)
			<-sem
			if !s.ok() || s.latMS > sloMS {
				missed.Add(1)
			}
			samples[i] = s
		}()
	}
	wg.Wait()
	return samples
}

// requestBody is the JSON body of req.
func requestBody(req *load.Request) ([]byte, error) {
	if req.Op == load.OpMutate {
		return json.Marshal(server.MutateRequest{Mutations: req.Mutations})
	}
	return json.Marshal(req.Query)
}

// do sends one request with its marshalled body through the server's HTTP
// handler under a bench.request root span.
func (svc *service) do(tr *obs.Tracer, req *load.Request, body []byte) sample {
	s := sample{op: req.Op, cohort: req.Cohort, graph: req.Graph, muts: req.Mutations}
	method, path := http.MethodPost, "/query"
	if req.Op == load.OpMutate {
		method, path = http.MethodPatch, "/graphs/"+req.Graph
	}
	ctx, root := tr.Start(context.Background(), "bench.request")
	r := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx)
	r.Header.Set("Content-Type", "application/json")
	rw := httptest.NewRecorder()
	svc.mux.ServeHTTP(rw, r)
	root.End()
	s.status = rw.Code
	s.body = rw.Body.Bytes()
	return s
}

// decode parses the response body of a successful request.
func (s *sample) decode() {
	if !s.ok() {
		return
	}
	switch s.op {
	case load.OpQuery:
		var qr server.QueryResult
		if err := json.Unmarshal(s.body, &qr); err != nil {
			s.status = 0
			return
		}
		s.hit, s.coalesced, s.computeMS = qr.Stats.CacheHit, qr.Stats.Coalesced, qr.Stats.ComputeMS
	case load.OpMutate:
		var mr server.MutateResult
		if err := json.Unmarshal(s.body, &mr); err != nil {
			s.status = 0
			return
		}
		s.mut = &mr
	}
	s.body = nil
}

// step is one open-loop run at one offered rate on a fresh service.
type step struct {
	samples []sample
	before  server.Stats
	after   server.Stats
	elapsed time.Duration
	// cpuMS is the process CPU time spent while the requests were driven:
	// the server's work and the generator's dispatch, httptest request and
	// recorder, but not the trace, the bodies or the responses' decoding.
	cpuMS float64
	svc   *service
}

func genTrace(seed int64, rate float64, horizon time.Duration) ([]load.Request, error) {
	graphs := make([]*load.SeededGraph, 0, 2)
	for _, g := range serveSpecs() {
		sg, err := load.NewSeededGraph(g.name, g.spec)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, sg)
	}
	return load.GenerateTrace(load.TraceConfig{
		Cohorts:  serveCohorts(),
		Graphs:   graphs,
		Schedule: load.Constant{RPS: rate},
		Horizon:  horizon,
		Seed:     seed*7919 + int64(rate),
	})
}

// runStep drives a fresh service at rate for horizon (see drive for
// maxMiss).
func runStep(seed int64, rate float64, horizon time.Duration, tr *obs.Tracer, maxMiss int) (*step, error) {
	trace, err := genTrace(seed, rate, horizon)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(trace))
	for i := range trace {
		if bodies[i], err = requestBody(&trace[i]); err != nil {
			return nil, err
		}
	}
	svc, err := newService(tr)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	st := &step{svc: svc, before: svc.srv.Stats()}
	t0, c0 := time.Now(), cpuTime()
	st.samples = svc.drive(tr, trace, bodies, maxMiss)
	st.cpuMS, st.elapsed = ms(cpuTime()-c0), time.Since(t0)
	st.after = svc.srv.Stats()
	for i := range st.samples {
		st.samples[i].decode()
	}
	return st, nil
}

// goodFrac is the share of requests that succeeded within the SLO.
func (st *step) goodFrac() float64 {
	good := 0
	for _, s := range st.samples {
		if s.ok() && s.latMS <= sloMS {
			good++
		}
	}
	return frac(float64(good), float64(len(st.samples)))
}

func (st *step) lat(op load.Op) []float64 {
	var xs []float64
	for _, s := range st.samples {
		if op == "" || s.op == op {
			xs = append(xs, s.latMS)
		}
	}
	return xs
}

// kneeSearch bisects, in log space between refRate (which the reference
// step showed meets the SLO) and kneeHi, for the highest offered rate at
// which at least sloGood of the requests succeed within sloMS. Each probe
// runs horizon on a fresh service. It returns that rate's goodput within
// the SLO.
func kneeSearch(seed int64, horizon time.Duration) (float64, error) {
	lo, hi := refRate, kneeHi
	best := 0.0
	for range kneeProbes {
		mid := math.Sqrt(lo * hi)
		g, err := probe(seed, mid, horizon)
		if err != nil {
			return 0, err
		}
		if g >= sloGood {
			lo, best = mid, mid*g
		} else {
			hi = mid
		}
	}
	if best <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: no probe above %.0f req/s met the SLO\n", refRate)
	}
	return best, nil
}

// probe offers rate for horizon and returns the share of requests that
// met the SLO. A probe that misses is run once more on a fresh service and
// the better share kept, so that one stall of the shared host does not
// end the search.
func probe(seed int64, rate float64, horizon time.Duration) (float64, error) {
	budget := max(1, int((1-sloGood)*rate*horizon.Seconds()))
	best := 0.0
	for try := 0; try < 2 && best < sloGood; try++ {
		st, err := runStep(seed, rate, horizon, nil, budget)
		if err != nil {
			return 0, err
		}
		best = max(best, st.goodFrac())
		fmt.Fprintf(os.Stderr, "perfbench: knee probe %.0f req/s: %.2f%% within %.0f ms\n", rate, 100*st.goodFrac(), sloMS)
	}
	return best, nil
}

// runServeMixed measures set-up and a reference-rate step for the run
// budget, and checks every graph's exact scores against Brandes after it.
// A traced run adds the knee search and the traced pass.
func runServeMixed(c runConfig) (*outcome, error) {
	out := &outcome{Metrics: map[string]float64{}}
	setup, err := newSetupTimer(func() error {
		_, err := newService(nil)
		return err
	})
	if err == nil {
		err = setup.measure(serveSetups, serveSetupsPer)
	}
	if err != nil {
		return out, fmt.Errorf("serve-mixed: set-up: %w", err)
	}

	budget := time.Duration(c.Seconds * float64(time.Second))
	ref, rssMB, err := referenceStep(c.Seed, budget)
	if err != nil {
		return out, err
	}
	if err := ref.check(); err != nil {
		return out, err
	}
	for _, s := range ref.samples {
		out.Attempted++
		if !s.ok() {
			out.Failed++
		}
	}

	if err := setup.measure(serveSetups, serveSetupsPer); err != nil {
		return out, fmt.Errorf("serve-mixed: set-up: %w", err)
	}
	setupCPU, setupWall := setup.medians()
	m := out.Metrics
	m["setup_s"] = setupCPU
	m["op_cpu_ms"] = ref.cpuMS / float64(len(ref.samples))
	m["rss_mb"] = rssMB
	if !c.Trace {
		return out, nil
	}
	m["setup_wall_s"] = setupWall
	// The median is taken from dispatch: at this rate the generator's own
	// timer lateness (load.dispatch_lag_p99_ms) is several times a cache
	// hit's service time. The tails and the SLO count from the schedule.
	m["op_p50_ms"] = ref.svcMedian()
	m["failed_frac"] = frac(float64(out.Failed), float64(out.Attempted))
	m["ops_per_s"] = float64(out.Attempted-out.Failed) / ref.elapsed.Seconds()
	ref.loadMetrics(m)
	ref.serverMetrics(m)
	knee, err := kneeSearch(c.Seed, kneeHorizon)
	if err != nil {
		return out, err
	}
	m["max_rps_at_slo"] = knee
	return out, serveTraced(c, m)
}

// referenceStep drives the reference rate for budget on a fresh service
// and returns the step with the median resident set it took. A step in
// which the generator itself dispatched late is invalid and run once more;
// a second late step fails the run.
func referenceStep(seed int64, budget time.Duration) (*step, float64, error) {
	for try := 0; ; try++ {
		rss := startRSS()
		st, err := runStep(seed, refRate, budget, nil, 0)
		if err != nil {
			return nil, 0, fmt.Errorf("serve-mixed: reference step: %w", err)
		}
		rssMB, err := rss.median()
		if err != nil {
			return nil, 0, err
		}
		lag := st.lagP99()
		if lag <= lagLimitMS {
			return st, rssMB, nil
		}
		fmt.Fprintf(os.Stderr, "perfbench: invalid step: the generator dispatched %.1f ms late at p99 (limit %.0f ms)\n", lag, lagLimitMS)
		if try == 1 {
			return nil, 0, fmt.Errorf("serve-mixed: the generator lagged in two reference steps")
		}
	}
}

func (st *step) lagP99() float64 {
	lag := make([]float64, len(st.samples))
	for i, s := range st.samples {
		lag[i] = s.lagMS
	}
	return quantile(lag, 0.99)
}

// loadMetrics reports the generator's health: how late it dispatched,
// and what each cohort sent and got back.
func (st *step) loadMetrics(m map[string]float64) {
	m["load.dispatch_lag_p99_ms"] = st.lagP99()
	for _, s := range st.samples {
		for _, prefix := range []string{"load.", "load." + s.cohort + "."} {
			m[prefix+"sent"]++
			if s.ok() {
				m[prefix+"ok"]++
			} else {
				m[prefix+"failed"]++
			}
		}
	}
}

// serverMetrics reads the reference step's per-request reports and the
// server's counters.
func (st *step) serverMetrics(m map[string]float64) {
	m["query_p50_ms"] = quantile(st.lat(load.OpQuery), 0.50)
	m["query_p99_ms"] = quantile(st.lat(load.OpQuery), 0.99)
	m["mutate_p50_ms"] = quantile(st.lat(load.OpMutate), 0.50)
	m["mutate_p99_ms"] = quantile(st.lat(load.OpMutate), 0.99)

	queries := float64(st.after.Queries - st.before.Queries)
	m["server.cache_hit_frac"] = frac(float64(st.after.CacheHits-st.before.CacheHits), queries)
	m["server.coalesced_frac"] = frac(float64(st.after.Coalesced-st.before.Coalesced), queries)
	m["server.computes"] = float64(st.after.Computes - st.before.Computes)
	m["server.warm_seeds"] = float64(st.after.WarmSeeds - st.before.WarmSeeds)
	m["server.evictions"] = float64(st.after.Evictions - st.before.Evictions)

	var computeMS, hitMS, mutCompute, mutWait []float64
	var applies []applyRec
	full := 0.0
	for _, s := range st.samples {
		switch {
		case s.op == load.OpQuery && s.ok() && s.hit:
			hitMS = append(hitMS, s.svcMS)
		case s.op == load.OpQuery && s.ok() && !s.coalesced:
			computeMS = append(computeMS, s.computeMS)
		case s.mut != nil:
			mutCompute = append(mutCompute, s.mut.ComputeMS)
			mutWait = append(mutWait, s.latMS-s.mut.ComputeMS)
			applies = append(applies, applyRec{ms: s.mut.ComputeMS, rep: repro.ApplyReport{
				Strategy: s.mut.Strategy, Affected: s.mut.AffectedSources, N: s.mut.N,
				Fused: s.mut.Fused, Comm: s.mut.Comm,
			}})
			if s.mut.Strategy == "full" {
				full++
			}
		}
	}
	m["server.query_compute_ms"] = median(computeMS)
	m["server.hit_overhead_ms"] = median(hitMS)
	m["server.mutate_compute_p50_ms"] = quantile(mutCompute, 0.50)
	m["server.mutate_compute_p99_ms"] = quantile(mutCompute, 0.99)
	m["server.mutate_wait_p50_ms"] = quantile(mutWait, 0.50)
	m["server.mutate_wait_p99_ms"] = quantile(mutWait, 0.99)
	m["server.full_fallback_frac"] = frac(full, float64(len(applies)))
	dynamicMetrics(m, applies)
}

// check is serve-mixed's correctness gate: the server's request counters
// agree with what the generator sent, and an exact query per graph
// matches Brandes on the graph the applied mutations produce, replayed in
// the order the server committed them.
func (st *step) check() error {
	errs := 0
	for _, s := range st.samples {
		if !s.ok() {
			errs++
		}
	}
	// Cross-check client and server request counts.
	text := st.svc.srv.Registry().Text()
	after, err := load.ParseMetrics(text)
	if err != nil {
		return fmt.Errorf("serve-mixed: parse /metrics: %w", err)
	}
	rr := load.RunResult{
		Total:         load.CohortSummary{Requests: len(st.samples), Errors: errs},
		MetricsBefore: load.MetricsSnapshot{},
		MetricsAfter:  after,
	}
	if err := rr.CrossCheck(); err != nil {
		return wrongf("%v", err)
	}

	for _, g := range serveSpecs() {
		local, err := server.BuildGraph(g.spec)
		if err != nil {
			return err
		}
		type commit struct {
			seq  uint64
			muts []repro.Mutation
		}
		var commits []commit
		for _, s := range st.samples {
			if s.mut != nil && s.graph == g.name {
				commits = append(commits, commit{s.mut.Seq, s.muts})
			}
		}
		sort.Slice(commits, func(a, b int) bool { return commits[a].seq < commits[b].seq })
		for _, c := range commits {
			if _, err := local.ApplyAll(c.muts); err != nil {
				return wrongf("replay on %s: %v", g.name, err)
			}
		}
		q := &load.Request{Op: load.OpQuery, Graph: g.name, Query: &server.QueryRequest{Graph: g.name, IncludeScores: true}}
		body, err := requestBody(q)
		if err != nil {
			return err
		}
		s := st.svc.do(nil, q, body)
		if !s.ok() {
			return wrongf("exact query on %s: status %d", g.name, s.status)
		}
		var qr server.QueryResult
		if err := json.Unmarshal(s.body, &qr); err != nil {
			return wrongf("exact query on %s: %v", g.name, err)
		}
		if qr.Version != repro.Fingerprint(local) {
			return wrongf("%s: server version %x, replayed graph %x", g.name, qr.Version, repro.Fingerprint(local))
		}
		if err := sameScores(qr.Scores, baseline.Brandes(local)); err != nil {
			return wrongf("%s scores vs Brandes: %v", g.name, err)
		}
	}
	return nil
}

// serveTraced replays a short reference-rate trace untraced and then
// traced on fresh services; their median service times give the tracing
// overhead, and the traced run's spans the per-layer breakdown.
func serveTraced(c runConfig, m map[string]float64) error {
	plain, err := runStep(c.Seed, refRate, traceHorizon, nil, 0)
	if err != nil {
		return err
	}
	tr := newTracer()
	traced, err := runStep(c.Seed, refRate, traceHorizon, tr, 0)
	if err != nil {
		return err
	}
	if err := traced.check(); err != nil {
		return err
	}
	m["trace.overhead_frac"] = frac(traced.svcMedian()-plain.svcMedian(), plain.svcMedian())
	traceMetrics(m, foldTraces(tr.Traces()))
	return writeTraces(tr, c.TraceDir, "serve-mixed", c.Seed)
}

// svcMedian is the median time from dispatch to response.
func (st *step) svcMedian() float64 {
	xs := make([]float64, len(st.samples))
	for i, s := range st.samples {
		xs[i] = s.svcMS
	}
	return median(xs)
}

func serveCohortNames() []string {
	var names []string
	for _, c := range serveCohorts() {
		names = append(names, c.Name)
	}
	return names
}
