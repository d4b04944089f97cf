package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/spgemm"
)

const distStreamWhy = "weighted R-MAT s8/ef8 (n=213) on the p=8 sim machine, seeded single-mutation stream: 30% no-op, 50% fused incremental, 20% full-fallback applies (94% of apply CPU); machine holds 90% of traced time"

// dist-stream input: R-MAT scale 8, edge factor 8, integer weights 1–16
// (n=213, m=1239), drawn once from graphSeed, on the simulated machine
// with 8 ranks and automatic plan search; the run seed draws the mutation
// stream. The graph is not relabeled per seed: with 2 source batches, the
// relabeling moved the BC's round count, and with it the apply cost, by
// 18% between seeds (5% without). Scale 8 rather than 9 keeps a full
// fallback near one second, so every run holds several blocks of the
// stream. distSetups engine builds are timed before the stream and as many
// after it (setupTimer).
const (
	distScale      = 8
	distEdgeFactor = 8
	distMaxWeight  = 16
	distProcs      = 8
	distWorkers    = 1
	distSetups     = 2
)

func distGraph() *graph.Graph {
	g := graph.RMAT(graph.DefaultRMAT(distScale, distEdgeFactor, graphSeed))
	g.AddUniformWeights(1, distMaxWeight, graphSeed)
	return g
}

func distOptions() repro.DynamicOptions {
	return repro.DynamicOptions{Procs: distProcs, Workers: distWorkers}
}

// applyRec is one timed apply.
type applyRec struct {
	ms   float64
	cpu  float64 // process CPU ms
	band band
	rep  repro.ApplyReport
}

// runDistStream builds the p=8 dynamic engine (the set-up, which runs one
// from-scratch distributed BC), then applies the seeded stream block by
// block until the budget is spent. The scores after the stream must match
// Brandes on the final graph, and a from-scratch p=8 BC must match the
// sequential one.
func runDistStream(c runConfig) (*outcome, error) {
	out := &outcome{Metrics: map[string]float64{}}
	setup, err := newSetupTimer(func() error {
		_, err := repro.NewDynamicBC(distGraph(), distOptions())
		return err
	})
	if err == nil {
		err = setup.measure(distSetups, 1)
	}
	if err != nil {
		return out, fmt.Errorf("dist-stream: engine: %w", err)
	}
	// The engine the stream runs on.
	g0 := distGraph()
	d, err := repro.NewDynamicBC(g0, distOptions())
	if err != nil {
		return out, fmt.Errorf("dist-stream: engine: %w", err)
	}
	sg, err := newStreamGen(g0, distMaxWeight, c.Seed)
	if err != nil {
		return out, err
	}

	var recs []applyRec
	budget := time.Duration(c.Seconds * float64(time.Second))
	rss := startRSS()
	for start := time.Now(); out.Attempted == 0 || time.Since(start) < budget; {
		more, err := applyBlock(context.Background(), nil, d, sg, out)
		recs = append(recs, more...)
		if err != nil {
			return out, err
		}
	}
	rssMB, err := rss.median()
	if err != nil {
		return out, err
	}
	if err := setup.measure(distSetups, 1); err != nil {
		return out, fmt.Errorf("dist-stream: engine: %w", err)
	}
	setupCPU, setupWall := setup.medians()

	// From scratch: the p=8 machine against the sequential path.
	runtime.GC()
	t0 := time.Now()
	var dist *repro.Result
	dist, err = repro.Compute(g0, repro.Options{Procs: distProcs, Workers: distWorkers})
	bcWall := time.Since(t0)
	if err != nil {
		return out, fmt.Errorf("dist-stream: from-scratch p=%d BC: %w", distProcs, err)
	}
	seq, err := repro.Compute(g0, repro.Options{Workers: distWorkers})
	if err != nil {
		return out, fmt.Errorf("dist-stream: sequential BC: %w", err)
	}
	if err := sameScores(dist.BC, seq.BC); err != nil {
		return out, wrongf("from-scratch p=%d vs sequential: %v", distProcs, err)
	}

	lat, cpu := make([]float64, len(recs)), make([]float64, len(recs))
	fullCPU := 0.0
	for i, r := range recs {
		lat[i], cpu[i] = r.ms, r.cpu
		if r.rep.Strategy == "full" {
			fullCPU += r.cpu
		}
	}
	m := out.Metrics
	m["setup_s"] = setupCPU
	// The median apply: every block holds 3 no-op, 5 fused incremental and
	// 2 full-fallback applies, so it is always a fused one. A mean would
	// follow the fallbacks, which take most of the stream's CPU
	// (dynamic.full_cpu_frac) and are a from-scratch BC (bc_s).
	m["op_cpu_ms"] = median(cpu)
	m["rss_mb"] = rssMB

	if c.Trace {
		m["setup_wall_s"] = setupWall
		m["op_p50_ms"] = median(lat)
		m["ops_per_s"] = float64(len(lat)) / (sum(lat) / 1e3)
		m["failed_frac"] = frac(float64(out.Failed), float64(out.Attempted))
		m["bc_s"] = bcWall.Seconds()
		m["model_s"] = dist.Comm.ModelSec
		m["comm_bytes"] = float64(dist.Comm.Bytes)
		m["comm_msgs"] = float64(dist.Comm.Msgs)
		m["apply_per_s"] = m["ops_per_s"]
		m["apply_p50_ms"] = m["op_p50_ms"]
		dynamicMetrics(m, recs)
		m["dynamic.full_cpu_frac"] = frac(fullCPU, sum(cpu))
		if err := distLayers(c, g0, seq.BC, dist.Iterations, d, sg, out, m); err != nil {
			return out, err
		}
	}

	snap := d.Scores()
	if repro.Fingerprint(snap.Graph) != repro.Fingerprint(sg.g) {
		return out, wrongf("engine graph diverged from the applied stream")
	}
	if err := sameScores(snap.BC, baseline.Brandes(snap.Graph)); err != nil {
		return out, wrongf("scores after %d applies vs Brandes: %v", len(recs), err)
	}
	return out, nil
}

// applyBlock applies the stream's next block one mutation at a time under
// a bench.apply root span each (when tr is non-nil).
func applyBlock(ctx context.Context, tr *obs.Tracer, d *repro.DynamicBC, sg *streamGen, out *outcome) ([]applyRec, error) {
	muts, bands, err := sg.nextBlock()
	if err != nil {
		return nil, err
	}
	recs := make([]applyRec, 0, len(muts))
	for i, mu := range muts {
		runtime.GC()
		actx, root := tr.Start(ctx, "bench.apply")
		t0, c0 := time.Now(), cpuTime()
		rep, err := d.ApplyCtx(actx, []repro.Mutation{mu})
		dt, dc := ms(time.Since(t0)), ms(cpuTime()-c0)
		root.End()
		out.Attempted++
		if err != nil {
			// Every generated mutation is valid, so the engine and the
			// generator would part ways; stop the stream here.
			out.Failed++
			return recs, fmt.Errorf("dist-stream: apply %v: %w", mu, err)
		}
		recs = append(recs, applyRec{ms: dt, cpu: dc, band: bands[i], rep: rep})
	}
	return recs, nil
}

// applyClass is how an apply produced its scores.
func applyClass(r repro.ApplyReport) string {
	if r.Strategy == "incremental" && r.Affected == 0 {
		return "noop"
	}
	return r.Strategy
}

// dynamicMetrics summarises applies by strategy; ms is each apply's
// wall time (dist-stream) or the server-reported compute time
// (serve-mixed).
func dynamicMetrics(m map[string]float64, recs []applyRec) {
	byClass := map[string][]float64{}
	var fused, affected, modelMS, bytes float64
	for _, r := range recs {
		cl := applyClass(r.rep)
		byClass[cl] = append(byClass[cl], r.ms)
		if r.rep.Fused {
			fused++
		}
		affected += frac(float64(r.rep.Affected), float64(r.rep.N))
		modelMS += r.rep.Comm.ModelSec * 1e3
		bytes += float64(r.rep.Comm.Bytes)
	}
	n := float64(len(recs))
	incr := float64(len(byClass["incremental"]))
	m["dynamic.noop_ms"] = median(byClass["noop"])
	m["dynamic.incremental_ms"] = median(byClass["incremental"])
	m["dynamic.full_ms"] = median(byClass["full"])
	m["dynamic.incremental_frac"] = frac(incr, n)
	m["dynamic.fused_frac"] = frac(fused, incr)
	m["dynamic.affected_frac"] = frac(affected, n)
	m["dynamic.apply_model_ms"] = frac(modelMS, n)
	m["dynamic.apply_bytes"] = frac(bytes, n)
}

// distLayers makes dist-stream's traced pass: the kernel layers on the
// initial graph, the plan search, one from-scratch p=8 region untraced
// and once traced, and one more block of the stream traced.
func distLayers(c runConfig, g0 *graph.Graph, seqBC []float64, iters int, d *repro.DynamicBC, sg *streamGen, out *outcome, m map[string]float64) error {
	tr := newTracer()
	genMS := repeatMedian(20, func() { distGraph() })
	kUntraced, kTraced, err := kernelLayers(tr, g0, seqBC, genMS, m)
	if err != nil {
		return err
	}
	m["baseline.mfbc_over_brandes"] = frac(m["bc_s"]*1e3, m["baseline.brandes_ms"])

	// The planner's choice for the representative frontier product.
	model := machine.DefaultModel()
	nb := min(128, g0.N)
	var plan spgemm.Plan
	ctx, root := tr.Start(context.Background(), "bench.plan")
	within(ctx, "spgemm.search", func() {
		m["spgemm.search_ms"] = repeatMedian(50, func() { plan = core.ChoosePlan(g0, distProcs, nb, model, spgemm.AnyPlan) })
	})
	root.End()
	est := spgemm.Estimate(plan, spgemm.Problem{
		M: nb, K: g0.N, N: g0.N,
		NNZA: int64(float64(nb) * g0.AvgDegree()), NNZB: int64(g0.AdjacencyNNZ()),
		BytesA: multPathBytes, BytesB: weightBytes, BytesC: multPathBytes,
	}, model)
	m["spgemm.estimate_s"] = est

	region := func(ctx context.Context) (*core.DistResult, time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		var sess *core.DistSession
		var err error
		within(ctx, "core.session", func() {
			sess, err = core.NewDistSession(g0, core.DistOptions{Procs: distProcs, Workers: distWorkers})
		})
		if err != nil {
			return nil, 0, err
		}
		res, err := sess.RunCtx(ctx, nil)
		return res, time.Since(t0), err
	}
	_, untraced, err := region(context.Background())
	if err != nil {
		return fmt.Errorf("dist-stream: region: %w", err)
	}
	ctx, root = tr.Start(context.Background(), "bench.bc")
	res, traced, err := region(ctx)
	root.End()
	if err != nil {
		return fmt.Errorf("dist-stream: traced region: %w", err)
	}
	if err := sameScores(res.BC, seqBC); err != nil {
		return wrongf("traced p=%d region vs sequential: %v", distProcs, err)
	}
	m["trace.overhead_frac"] = frac(float64(kTraced+traced-kUntraced-untraced), float64(kUntraced+untraced))
	m["spgemm.estimate_over_model"] = frac(est*float64(iters), res.Stats.ModelSec)

	st := res.Stats
	m["machine.region_wall_s"] = st.Wall.Seconds()
	m["machine.wall_over_model"] = frac(st.Wall.Seconds(), st.ModelSec)
	m["machine.flops"] = float64(st.MaxCost.Flops)
	var total, peak float64
	for _, pc := range st.PerProc {
		total += float64(pc.Flops)
		peak = max(peak, float64(pc.Flops))
	}
	m["machine.imbalance"] = frac(peak, total/float64(len(st.PerProc)))
	for _, ph := range st.Phases {
		addPhase(m, ph.Name, ms(ph.Wall), ph.ModelSec*1e3, ph.MaxCost.Bytes, ph.MaxCost.Msgs)
	}

	recs, err := applyBlock(context.Background(), tr, d, sg, out)
	if err != nil {
		return err
	}
	for _, r := range recs {
		for _, ph := range r.rep.Phases {
			addPhase(m, ph.Name, ph.WallMS, ph.ModelSec*1e3, ph.Bytes, ph.Msgs)
		}
	}
	traceMetrics(m, foldTraces(tr.Traces()))
	return writeTraces(tr, c.TraceDir, "dist-stream", c.Seed)
}

// addPhase accumulates one region phase into the machine.<phase>.*
// metrics.
func addPhase(m map[string]float64, name string, wallMS, modelMS float64, bytes, msgs int64) {
	p := "machine." + name
	m[p+".wall_ms"] += wallMS
	m[p+".model_ms"] += modelMS
	m[p+".bytes"] += float64(bytes)
	m[p+".msgs"] += float64(msgs)
}
