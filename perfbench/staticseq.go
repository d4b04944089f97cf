package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/algebra"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sparse"
)

const staticSeqWhy = "exact BC of unweighted R-MAT s10/ef8 (n=799) on the sequential path, vertices relabeled per seed: core MFBF/MFBr hold 99% of traced time; machine, dynamic, server none"

// static-seq input: the Graph500 R-MAT graph of scale 10, edge factor 8,
// unweighted (n=799, m=5965 after dropping isolated vertices), drawn once
// from graphSeed; the run seed relabels its vertices, as Graph500 does.
// Keeping the structure fixed keeps the work of one BC the same across
// seeds (independent R-MAT draws differ by ±15% in BC time), so runs with
// different seeds measure the same thing. staticWorkers is the local
// kernels' parallelism. staticSetups windows of staticSetupsPer set-ups
// are timed before the BCs and as many after them (setupTimer).
const (
	staticScale      = 10
	staticEdgeFactor = 8
	staticWorkers    = 1
	staticSetups     = 5
	staticSetupsPer  = 8
	graphSeed        = 1
)

// Wire sizes of a sparse entry (two int32 indices and the value) of the
// MFBF and MFBr monoids and of the adjacency, for the computed-bytes count
// and the plan estimate.
const (
	multPathBytes = 24
	centPathBytes = 32
	weightBytes   = 16
)

func staticGraph(seed int64) *graph.Graph {
	g := graph.RMAT(graph.DefaultRMAT(staticScale, staticEdgeFactor, graphSeed))
	g.RandomPermute(seed)
	return g
}

// runStaticSeq times repro.Compute on the sequential path, once per
// operation, until the budget is spent; every result must match Brandes.
func runStaticSeq(c runConfig) (*outcome, error) {
	out := &outcome{Metrics: map[string]float64{}}
	var g *graph.Graph
	setup, err := newSetupTimer(func() error {
		g = staticGraph(c.Seed)
		return g.Validate()
	})
	if err == nil {
		err = setup.measure(staticSetups, staticSetupsPer)
	}
	if err != nil {
		return out, fmt.Errorf("static-seq: graph: %w", err)
	}
	ref := baseline.Brandes(g)

	var lat, cpu []float64
	budget := time.Duration(c.Seconds * float64(time.Second))
	rss := startRSS()
	for start := time.Now(); out.Attempted == 0 || time.Since(start) < budget; {
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		res, err := repro.Compute(g, repro.Options{Workers: staticWorkers})
		dt, dc := ms(time.Since(t0)), ms(cpuTime()-c0)
		out.Attempted++
		if err != nil {
			out.Failed++
			continue
		}
		if err := sameScores(res.BC, ref); err != nil {
			return out, wrongf("static-seq MFBC vs Brandes: %v", err)
		}
		lat = append(lat, dt)
		cpu = append(cpu, dc)
	}
	rssMB, err := rss.median()
	if err != nil {
		return out, err
	}
	if len(lat) == 0 {
		return out, fmt.Errorf("static-seq: every BC failed")
	}
	if err := setup.measure(staticSetups, staticSetupsPer); err != nil {
		return out, err
	}
	setupCPU, setupWall := setup.medians()
	m := out.Metrics
	m["setup_s"] = setupCPU
	m["op_cpu_ms"] = sum(cpu) / float64(len(cpu))
	m["rss_mb"] = rssMB
	if !c.Trace {
		return out, nil
	}
	m["setup_wall_s"] = setupWall
	m["op_p50_ms"] = median(lat)
	m["ops_per_s"] = float64(len(lat)) / (sum(lat) / 1e3)

	m["failed_frac"] = frac(float64(out.Failed), float64(out.Attempted))
	m["bc_s"] = median(lat) / 1e3
	tr := newTracer()
	untraced, traced, err := kernelLayers(tr, g, ref, setupWall*1e3, m)
	if err != nil {
		return out, err
	}
	m["trace.overhead_frac"] = frac(float64(traced-untraced), float64(untraced))
	m["baseline.mfbc_over_brandes"] = frac(median(lat), m["baseline.brandes_ms"])
	traceMetrics(m, foldTraces(tr.Traces()))
	return out, writeTraces(tr, c.TraceDir, "static-seq", c.Seed)
}

// kernelStats accumulates the core kernels' work over one BC.
type kernelStats struct {
	mfbfMS, mfbrMS       float64
	mfbfOps, mfbrOps     int64
	mfbfIters, mfbrIters int
}

// kernelBC computes exact BC by calling the layers one at a time —
// adjacency, transpose, then MFBF and MFBr per source batch, as
// core.MFBC does — with a span around each call when ctx is traced.
func kernelBC(ctx context.Context, g *graph.Graph, workers int) ([]float64, kernelStats) {
	var st kernelStats
	var a, at *sparse.CSR[float64]
	within(ctx, "graph.adjacency", func() { a = g.Adjacency() })
	within(ctx, "sparse.transpose", func() { at = sparse.Transpose(a) })
	bc := make([]float64, g.N)
	nb := min(128, g.N)
	for lo := 0; lo < g.N; lo += nb {
		sources := make([]int32, 0, nb)
		for s := lo; s < min(lo+nb, g.N); s++ {
			sources = append(sources, int32(s))
		}
		var t *sparse.CSR[algebra.MultPath]
		var z *sparse.CSR[algebra.CentPath]
		t0 := time.Now()
		within(ctx, "core.mfbf", func() {
			var ops int64
			var it int
			t, ops, it = core.MFBFParallel(a, sources, workers)
			st.mfbfOps += ops
			st.mfbfIters += it
		})
		t1 := time.Now()
		within(ctx, "core.mfbr", func() {
			var ops int64
			var it int
			z, ops, it = core.MFBrParallel(at, t, sources, workers)
			st.mfbrOps += ops
			st.mfbrIters += it
		})
		st.mfbfMS += ms(t1.Sub(t0))
		st.mfbrMS += ms(time.Since(t1))
		// λ(v) += Σ_s Z(s,v).p · T(s,v).m (Algorithm 3, line 5).
		sparse.ZipJoin(z, t, func(_, j int32, zc algebra.CentPath, tm algebra.MultPath) {
			bc[j] += zc.P * tm.M
		})
	}
	return bc, st
}

// kernelLayers measures the graph, sparse, core and baseline layers on g
// and makes the traced pass over them: one BC through kernelBC untraced
// and once traced, one Brandes and one frontier-shaped product. It returns
// the untraced and traced BC times, whose difference is the tracing
// overhead. Every score vector must match ref.
func kernelLayers(tr *obs.Tracer, g *graph.Graph, ref []float64, genMS float64, m map[string]float64) (untraced, traced time.Duration, err error) {
	m["graph.generate_ms"] = genMS
	var a *sparse.CSR[float64]
	m["graph.adjacency_ms"] = repeatMedian(5, func() { a = g.Adjacency() })
	m["sparse.transpose_ms"] = repeatMedian(5, func() { sparse.Transpose(a) })

	runtime.GC()
	t0 := time.Now()
	bc, st := kernelBC(context.Background(), g, staticWorkers)
	untraced = time.Since(t0)
	if err := sameScores(bc, ref); err != nil {
		return 0, 0, wrongf("layered MFBC vs Brandes: %v", err)
	}

	runtime.GC()
	ctx, root := tr.Start(context.Background(), "bench.bc")
	t0 = time.Now()
	bc, _ = kernelBC(ctx, g, staticWorkers)
	traced = time.Since(t0)
	root.End()
	if err := sameScores(bc, ref); err != nil {
		return 0, 0, wrongf("traced layered MFBC vs Brandes: %v", err)
	}

	m["core.mfbf_ms"] = st.mfbfMS
	m["core.mfbf_ops"] = float64(st.mfbfOps)
	m["core.mfbf_iters"] = float64(st.mfbfIters)
	m["core.mfbr_ms"] = st.mfbrMS
	m["core.mfbr_ops"] = float64(st.mfbrOps)
	m["core.mfbr_iters"] = float64(st.mfbrIters)
	m["core.bytes_computed"] = float64(st.mfbfOps*multPathBytes + st.mfbrOps*centPathBytes)

	ctx, root = tr.Start(context.Background(), "bench.brandes")
	var got []float64
	t0 = time.Now()
	within(ctx, "baseline.brandes", func() { got = baseline.Brandes(g) })
	m["baseline.brandes_ms"] = ms(time.Since(t0))
	root.End()
	if err := sameScores(got, ref); err != nil {
		return 0, 0, wrongf("Brandes is not deterministic: %v", err)
	}

	// One frontier-shaped product: the first batch's initial frontier
	// (its sources' adjacency rows as multpaths) times A.
	nb := min(128, g.N)
	init := sparse.NewCOO[algebra.MultPath](nb, g.N)
	for s := 0; s < nb; s++ {
		cols, vals := a.Row(s)
		for k, v := range cols {
			if int(v) != s {
				init.Append(int32(s), v, algebra.MultPath{W: vals[k], M: 1})
			}
		}
	}
	mp := algebra.MultPathMonoid()
	front := sparse.FromCOO(init, mp)
	var ops int64
	ctx, root = tr.Start(context.Background(), "bench.mul")
	within(ctx, "sparse.mul", func() {
		m["sparse.mul_ms"] = repeatMedian(5, func() { _, ops = sparse.MulParallel(front, a, algebra.BFAction, mp, staticWorkers) })
	})
	root.End()
	m["sparse.mul_ops"] = float64(ops)
	m["sparse.mul_mops_s"] = frac(float64(ops)/1e6, m["sparse.mul_ms"]/1e3)
	return untraced, traced, nil
}
