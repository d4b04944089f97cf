// Package core implements the paper's primary contribution: Maximal
// Frontier Betweenness Centrality (MFBC), composed of the Maximal Frontier
// Bellman-Ford (MFBF, Algorithm 1) and Maximal Frontier Brandes (MFBr,
// Algorithm 2) phases combined with batching (Algorithm 3).
//
// This file holds the sequential implementation, which is both the p=1 fast
// path and the reference the distributed implementation is tested against.
// See dist.go for the distributed version built on communication-efficient
// sparse matrix multiplication.
package core

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// Options configures an MFBC run.
type Options struct {
	// Batch is n_b, the number of source vertices processed per MFBF+MFBr
	// sweep: the time/memory trade-off of Algorithm 3. Batch ≤ 0 selects
	// min(n, 128).
	Batch int
	// Workers is the shared-memory parallelism of the local SpGEMM
	// kernels: 0 selects GOMAXPROCS, 1 forces the sequential kernels.
	// Results are identical for every worker count.
	Workers int
}

func (o Options) batchFor(n int) int {
	b := o.Batch
	if b <= 0 {
		b = 128
	}
	if b > n {
		b = n
	}
	return b
}

// MFBFParallel (Algorithm 1) computes, for each source s in sources and
// every vertex v, the multpath T(s,v) = (τ(s,v), σ̄(s,v)): shortest-path
// distance and multiplicity. Rows of T are indexed by source position;
// columns by vertex. Unreachable pairs and the source diagonal are absent
// (the sparse zero (∞,0)). τ(s,s) = 0 is implicit, and under strictly
// positive weights every walk back to s is strictly longer, so a diagonal
// entry could only record a non-shortest path; kept in T it would pose as
// a shortest-path-DAG vertex in MFBr and credit s with dependency, where
// δ(s,s) = 0 by definition.
//
// The frontier products are row-blocked across workers
// (sparse.MulParallel); the output is identical for every worker count,
// and workers <= 0 selects GOMAXPROCS. It returns T together with the
// number of monoid operations performed and the number of Bellman-Ford
// iterations (frontier relaxation rounds).
func MFBFParallel(a *sparse.CSR[float64], sources []int32, workers int) (*sparse.CSR[algebra.MultPath], int64, int) {
	mp := algebra.MultPathMonoid()
	n := a.Cols
	nb := len(sources)

	init := sparse.NewCOO[algebra.MultPath](nb, n)
	for s, src := range sources {
		cols, vals := a.Row(int(src))
		for k, v := range cols {
			if v == src {
				continue
			}
			init.Append(int32(s), v, algebra.MultPath{W: vals[k], M: 1})
		}
	}
	t := sparse.FromCOO(init, mp)
	frontier := t
	var ops int64
	iters := 0
	for frontier.NNZ() > 0 {
		iters++
		if iters > a.Rows+1 {
			panic("core: MFBF failed to converge; the graph has a nonpositive-weight cycle")
		}
		ext, o := sparse.MulParallel(frontier, a, algebra.BFAction, mp, workers)
		ops += o
		ext = dropDiagonal(ext, sources)
		t = sparse.EWise(t, ext, mp)
		frontier = screenFrontier(ext, t)
	}
	return t, ops, iters
}

// dropDiagonal removes (s, sources[s]) entries: walks that return to their
// source are never shortest paths under strictly positive weights.
func dropDiagonal[T any](m *sparse.CSR[T], sources []int32) *sparse.CSR[T] {
	return sparse.Filter(m, func(i, j int32, _ T) bool { return j != sources[i] })
}

// screenFrontier implements Algorithm 1 line 6: the next frontier keeps the
// entries of the extension whose weight still matches the accumulated T
// (strictly worse paths are discarded; ties carry the newly discovered
// multiplicities forward).
func screenFrontier(ext, t *sparse.CSR[algebra.MultPath]) *sparse.CSR[algebra.MultPath] {
	out := &sparse.CSR[algebra.MultPath]{Rows: ext.Rows, Cols: ext.Cols, RowPtr: make([]int64, ext.Rows+1)}
	out.ColIdx = make([]int32, 0, ext.NNZ())
	out.Val = make([]algebra.MultPath, 0, ext.NNZ())
	for i := 0; i < ext.Rows; i++ {
		ec, ev := ext.Row(i)
		tc, tv := t.Row(i)
		y := 0
		for x, j := range ec {
			for y < len(tc) && tc[y] < j {
				y++
			}
			//lint:allow floateq screening requires an exact match of bit-identically replicated weights
			if y < len(tc) && tc[y] == j && ev[x].W == tv[y].W && ev[x].M > 0 {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, ev[x])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// screenCent keeps the centpath entries whose weight matches T at the same
// coordinate; everything else is a spurious back-propagation artifact
// (including contributions at pairs absent from T).
func screenCent(p *sparse.CSR[algebra.CentPath], t *sparse.CSR[algebra.MultPath]) *sparse.CSR[algebra.CentPath] {
	out := &sparse.CSR[algebra.CentPath]{Rows: p.Rows, Cols: p.Cols, RowPtr: make([]int64, p.Rows+1)}
	out.ColIdx = make([]int32, 0, p.NNZ())
	out.Val = make([]algebra.CentPath, 0, p.NNZ())
	for i := 0; i < p.Rows; i++ {
		pc, pv := p.Row(i)
		tc, tv := t.Row(i)
		y := 0
		for x, j := range pc {
			for y < len(tc) && tc[y] < j {
				y++
			}
			//lint:allow floateq screening requires an exact match of bit-identically replicated weights
			if y < len(tc) && tc[y] == j && pv[x].W == tv[y].W {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, pv[x])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// MFBrParallel (Algorithm 2) back-propagates partial centrality factors
// ζ(s,v) = δ(s,v)/σ̄(s,v) over the shortest-path DAG encoded by T. The
// returned centpath matrix Z has exactly T's sparsity pattern with
// Z(s,v).P = ζ(s,v).
//
// Counters are initialized to the number of shortest-path-DAG children of
// each (s,v) pair — what one screened product of the T pattern with Aᵀ
// counts — and leaves (counter 0) seed the first frontier. Lemma 4.2 needs
// these semantics: ζ(s,v) is final only once every child has folded in its
// contribution, so (s,v) may join the frontier exactly when its counter
// reaches zero. The back-propagation products are row-blocked across
// workers; the output is identical for every worker count.
func MFBrParallel(at *sparse.CSR[float64], t *sparse.CSR[algebra.MultPath], sources []int32, workers int) (*sparse.CSR[algebra.CentPath], int64, int) {
	cp := algebra.CentPathMonoid()
	z, ops := initZ(at, t, workers)
	frontier := collectFrontier(z, t)

	iters := 0
	for frontier.NNZ() > 0 {
		iters++
		if iters > at.Rows+1 {
			panic("core: MFBr failed to converge; inconsistent shortest-path DAG")
		}
		p, o := sparse.MulParallel(frontier, at, algebra.BrandesAction, cp, workers)
		ops += o
		foldZ(z, screenCent(p, t), cp)
		frontier = collectFrontier(z, t)
	}
	return z, ops, iters
}

// initZ returns Z, which holds every T coordinate with its child counter,
// and the op count of the child-counting product of the T pattern with Aᵀ.
// Leaves (counter 0) seed MFBr's first frontier with (T.w, 1/σ̄, −1).
func initZ(at *sparse.CSR[float64], t *sparse.CSR[algebra.MultPath], workers int) (*sparse.CSR[algebra.CentPath], int64) {
	cp := algebra.CentPathMonoid()
	z0 := sparse.Map(t, cp, func(_, _ int32, v algebra.MultPath) algebra.CentPath {
		return algebra.CentPath{W: v.W, P: 0, C: 1}
	})
	counts, ops := sparse.MulParallel(z0, at, algebra.BrandesAction, cp, workers)
	return buildZ(t, screenCent(counts, t)), ops
}

// buildZ merges the T pattern with the screened child counts.
func buildZ(t *sparse.CSR[algebra.MultPath], counts *sparse.CSR[algebra.CentPath]) *sparse.CSR[algebra.CentPath] {
	out := &sparse.CSR[algebra.CentPath]{Rows: t.Rows, Cols: t.Cols, RowPtr: make([]int64, t.Rows+1)}
	out.ColIdx = make([]int32, 0, t.NNZ())
	out.Val = make([]algebra.CentPath, 0, t.NNZ())
	for i := 0; i < t.Rows; i++ {
		tc, tv := t.Row(i)
		cc, cv := counts.Row(i)
		y := 0
		for x, j := range tc {
			for y < len(cc) && cc[y] < j {
				y++
			}
			var c int64
			if y < len(cc) && cc[y] == j {
				c = cv[y].C
			}
			out.ColIdx = append(out.ColIdx, j)
			out.Val = append(out.Val, algebra.CentPath{W: tv[x].W, P: 0, C: c})
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// foldZ folds the screened product p into Z in place:
// Z(s,v) ← Z(s,v) ⊗ p(s,v) at every coordinate of p. screenCent keeps only
// coordinates of T, and Z's pattern is T's (buildZ), so p's pattern is a
// subset of Z's and the union merge sparse.EWise(z, p, cp) would return
// Z's pattern unchanged: both operands carry T's finite weight, so no
// folded value is the monoid zero. A coordinate of p outside Z's pattern
// breaks that invariant and panics.
func foldZ(z, p *sparse.CSR[algebra.CentPath], cp algebra.Monoid[algebra.CentPath]) {
	if z.Rows != p.Rows || z.Cols != p.Cols {
		panic(fmt.Sprintf("core: MFBr fold shape mismatch: Z %dx%d, product %dx%d", z.Rows, z.Cols, p.Rows, p.Cols))
	}
	for i := 0; i < p.Rows; i++ {
		pc, pv := p.Row(i)
		zc, zv := z.Row(i)
		y := 0
		for x, j := range pc {
			for y < len(zc) && zc[y] < j {
				y++
			}
			if y == len(zc) || zc[y] != j {
				panic(fmt.Sprintf("core: MFBr fold: product entry (%d,%d) lies outside Z's pattern", i, j))
			}
			zv[y] = cp.Op(zv[y], pv[x])
		}
	}
}

// collectFrontier extracts the entries of Z whose counter just reached zero
// (all children reported), emitting frontier centpaths (T.w, ζ + 1/σ̄, −1)
// and marking them done in Z. Z and T share their sparsity pattern.
func collectFrontier(z *sparse.CSR[algebra.CentPath], t *sparse.CSR[algebra.MultPath]) *sparse.CSR[algebra.CentPath] {
	out := &sparse.CSR[algebra.CentPath]{Rows: z.Rows, Cols: z.Cols, RowPtr: make([]int64, z.Rows+1)}
	for i := 0; i < z.Rows; i++ {
		lo, hi := z.RowPtr[i], z.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			if z.Val[k].C == 0 {
				m := t.Val[k].M
				out.ColIdx = append(out.ColIdx, z.ColIdx[k])
				out.Val = append(out.Val, algebra.CentPath{W: z.Val[k].W, P: z.Val[k].P + 1/m, C: -1})
				z.Val[k].C = -1
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// Result carries the output of an MFBC run along with work statistics.
type Result struct {
	BC         []float64
	Ops        int64 // generalized multiply operations (ops(A,B) measure)
	Iterations int   // total frontier relaxation rounds across both phases and all batches
	Batches    int
}

// MFBC (Algorithm 3) computes betweenness centrality for every vertex of g.
func MFBC(g *graph.Graph, opt Options) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	a := g.Adjacency()
	at := sparse.Transpose(a)
	res := &Result{BC: make([]float64, g.N)}
	nb := opt.batchFor(g.N)
	for lo := 0; lo < g.N; lo += nb {
		hi := lo + nb
		if hi > g.N {
			hi = g.N
		}
		sources := make([]int32, 0, hi-lo)
		for s := lo; s < hi; s++ {
			sources = append(sources, int32(s))
		}
		res.Batches++
		t, opsF, itF := MFBFParallel(a, sources, opt.Workers)
		z, opsB, itB := MFBrParallel(at, t, sources, opt.Workers)
		res.Ops += opsF + opsB
		res.Iterations += itF + itB
		accumulate(res.BC, z, t)
	}
	return res, nil
}

// MFBCBatchParallel runs a single batch for the given sources with
// worker-parallel local kernels, accumulating δ(s,v) = ζ(s,v)·σ̄(s,v) into
// bc. Used by the benchmark harness and the dynamic engine.
func MFBCBatchParallel(a, at *sparse.CSR[float64], sources []int32, bc []float64, workers int) (ops int64, iters int) {
	t, opsF, itF := MFBFParallel(a, sources, workers)
	z, opsB, itB := MFBrParallel(at, t, sources, workers)
	accumulate(bc, z, t)
	return opsF + opsB, itF + itB
}

// accumulate folds one batch into the centrality vector:
// λ(v) += Σ_s Z(s,v).p · T(s,v).m (Algorithm 3 line 5).
func accumulate(bc []float64, z *sparse.CSR[algebra.CentPath], t *sparse.CSR[algebra.MultPath]) {
	sparse.ZipJoin(z, t, func(_, j int32, zc algebra.CentPath, tm algebra.MultPath) {
		bc[j] += zc.P * tm.M
	})
}
