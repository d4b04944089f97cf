// Distributed MFBC: the algorithms of seq.go re-expressed over distributed
// matrices, with every frontier relaxation executed as a
// communication-efficient generalized sparse matrix multiplication
// (internal/spgemm) on the machine. The adjacency matrix and its transpose
// are stationary cached operands, so their placement (including 3D fiber
// replication) is paid once per run and amortized, as in the proof of
// Theorem 5.1.
//
// MFBF and MFBr are written once, generic over a per-side value algebra
// (sides): a scalar run (DistSession.Run, SSSPDistributed) sweeps one side,
// a fused incremental apply (fused.go) sweeps the old and new sides of an
// edit in lock-step.
package core

import (
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/distmat"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/machine/sim"
	"repro/internal/sparse"
	"repro/internal/spgemm"
)

// DistOptions configures a distributed MFBC run.
type DistOptions struct {
	Procs      int                // processor count (p); with a Transport it must match Transport.Size()
	Workers    int                // per-rank local-kernel parallelism; 0 = fair share of host cores across local ranks, 1 = sequential
	Batch      int                // n_b; ≤0 selects min(n, 128)
	Sources    []int32            // when non-nil, process only this single batch (benchmark mode); BC holds the partial contribution Σ_{s∈Sources} δ(s,·)
	Plan       *spgemm.Plan       // force a decomposition; nil = automatic search
	Constraint spgemm.Constraint  // restrict the automatic search (ablations)
	Model      *machine.CostModel // override the α–β–γ constants
	Timeout    int                // seconds per collective watchdog; 0 = default
	CacheSets  int                // per-rank stationary-cache bound in working sets per matrix; ≤ 0 = unbounded
	// Transport pins every region of this run/session to an external
	// machine backend (e.g. a tcpnet rank mesh) instead of a fresh
	// simulated machine per region. The caller owns its lifecycle; Model
	// and Timeout overrides are applied to it when set.
	Transport machine.Transport
}

// transportFor returns the machine backend for a region: the persistent
// externally-managed transport when one is configured (rank-per-process
// deployments), else a fresh simulated machine of p ranks.
func transportFor(p int, opt DistOptions) machine.Transport {
	tr := opt.Transport
	if tr == nil {
		tr = sim.New(p)
	}
	if opt.Model != nil {
		tr.SetModel(*opt.Model)
	}
	if opt.Timeout > 0 {
		tr.SetTimeout(time.Duration(opt.Timeout) * time.Second)
	}
	return tr
}

// DistResult is the outcome of a distributed run.
type DistResult struct {
	BC         []float64
	Plan       spgemm.Plan
	Stats      machine.RunStats
	Iterations int
	Batches    int
}

// multpathBytes and centpathBytes are the wire sizes used for plan costing.
const (
	multpathBytes = 24 // Entry[MultPath]: 2×int32 + float64 + float64
	centpathBytes = 32 // Entry[CentPath]: 2×int32 + float64 + float64 + int64
	weightBytes   = 16 // Entry[float64]
)

// ChoosePlan runs the automatic decomposition search for an MFBC frontier
// multiplication on graph g with p processors and batch nb.
func ChoosePlan(g *graph.Graph, p, nb int, model machine.CostModel, cons spgemm.Constraint) spgemm.Plan {
	nnzAdj := int64(g.AdjacencyNNZ())
	avgDeg := g.AvgDegree()
	pl := planner{
		p: p, n: g.N, adjNNZ: nnzAdj, model: model, cons: cons,
	}
	return pl.planFor(nb, int64(float64(nb)*avgDeg), multpathBytes)
}

// planner mirrors CTF's mapping framework: every multiplication is planned
// individually from the runtime nonzero counts of its operands (§6.2 "for
// each operation, CTF seeks an optimal processor grid"). A forced plan or a
// search constraint applies to all operations. Selection is a pure function
// of globally agreed values, so all processors pick the same plan.
type planner struct {
	p      int
	n      int
	adjNNZ int64
	model  machine.CostModel
	cons   spgemm.Constraint
	forced *spgemm.Plan
}

func (pl planner) planFor(rows int, nnzA int64, bytesA int64) spgemm.Plan {
	if pl.forced != nil {
		return *pl.forced
	}
	pr := spgemm.Problem{
		M: rows, K: pl.n, N: pl.n,
		NNZA:   nnzA,
		NNZB:   pl.adjNNZ,
		BytesA: bytesA,
		BytesB: weightBytes,
		BytesC: bytesA,
	}
	return spgemm.Search(pl.p, pr, pl.model, pl.cons)
}

// MFBCDistributed computes betweenness centrality on the simulated
// distributed machine. It is the one-shot form of a DistSession: operands
// are built, staged, and discarded with the run. Explicit opt.Sources are
// processed as a single batch (benchmark mode); streaming callers that
// want cross-run operand reuse hold a DistSession instead (dyndist.go).
func MFBCDistributed(g *graph.Graph, opt DistOptions) (*DistResult, error) {
	s, err := NewDistSession(g, opt)
	if err != nil {
		return nil, err
	}
	nb := Options{Batch: opt.Batch}.batchFor(g.N)
	if opt.Sources != nil {
		nb = len(opt.Sources)
	}
	return s.run(opt.Sources, nb)
}

// batchList partitions 0..n-1 into batches of nb sources, or chunks the
// explicit source list into nb-sized batches when one is given.
func batchList(n, nb int, explicit []int32) [][]int32 {
	var out [][]int32
	if explicit != nil {
		for lo := 0; lo < len(explicit); lo += nb {
			hi := lo + nb
			if hi > len(explicit) {
				hi = len(explicit)
			}
			out = append(out, explicit[lo:hi])
		}
		return out
	}
	for lo := 0; lo < n; lo += nb {
		hi := lo + nb
		if hi > n {
			hi = n
		}
		sources := make([]int32, 0, hi-lo)
		for s := lo; s < hi; s++ {
			sources = append(sources, int32(s))
		}
		out = append(out, sources)
	}
	return out
}

// comp exposes the side components of a sweep value type V whose per-side
// component is E. with returns v with side s replaced by e; values are
// passed by copy so the hot loops never heap-allocate.
type comp[V, E any] struct {
	mon  algebra.Monoid[V]
	get  func(v V, s int) E
	with func(v V, s int, e E) V
	live func(E) bool
}

// sides is the per-side value algebra of the distributed sweeps. Edge
// weights W, multpaths M and centpaths C each carry n independent side
// components: one for a scalar run (sweepScalar), two for a fused apply's
// old and new sides (sweepPair). Every step acts side by side, and a dead
// component is its side's exact zero, so each side executes exactly the
// floating-point sequence of a one-sided sweep over that side alone.
type sides[W, M, C any] struct {
	n      int
	weight algebra.Monoid[W]
	mult   comp[M, algebra.MultPath]
	cent   comp[C, algebra.CentPath]
	bf     func(M, W) M // Bellman-Ford action
	br     func(C, W) C // Brandes action
}

func multLive(x algebra.MultPath) bool { return !algebra.MultPathIsZero(x) }
func centLive(x algebra.CentPath) bool { return !algebra.CentPathIsZero(x) }

func scalarComp[E any](mon algebra.Monoid[E], live func(E) bool) comp[E, E] {
	return comp[E, E]{
		mon:  mon,
		get:  func(v E, _ int) E { return v },
		with: func(_ E, _ int, e E) E { return e },
		live: live,
	}
}

var sweepScalar = sides[float64, algebra.MultPath, algebra.CentPath]{
	n:      1,
	weight: algebra.TropicalMonoid(),
	mult:   scalarComp(algebra.MultPathMonoid(), multLive),
	cent:   scalarComp(algebra.CentPathMonoid(), centLive),
	bf:     algebra.BFAction,
	br:     algebra.BrandesAction,
}

var sweepPair = sides[algebra.WeightPair, algebra.MultPathPair, algebra.CentPathPair]{
	n:      2,
	weight: algebra.WeightPairMonoid(),
	mult: comp[algebra.MultPathPair, algebra.MultPath]{
		mon: algebra.MultPathPairMonoid(),
		get: func(v algebra.MultPathPair, s int) algebra.MultPath {
			if s == 0 {
				return v.Old
			}
			return v.New
		},
		with: func(v algebra.MultPathPair, s int, e algebra.MultPath) algebra.MultPathPair {
			if s == 0 {
				v.Old = e
			} else {
				v.New = e
			}
			return v
		},
		live: multLive,
	},
	cent: comp[algebra.CentPathPair, algebra.CentPath]{
		mon: algebra.CentPathPairMonoid(),
		get: func(v algebra.CentPathPair, s int) algebra.CentPath {
			if s == 0 {
				return v.Old
			}
			return v.New
		},
		with: func(v algebra.CentPathPair, s int, e algebra.CentPath) algebra.CentPathPair {
			if s == 0 {
				v.Old = e
			} else {
				v.New = e
			}
			return v
		},
		live: centLive,
	},
	bf: algebra.BFActionPair,
	br: algebra.BrandesActionPair,
}

// sweepInput is one rank's view of a region's stationary operands: A and Aᵀ
// in the sweep's weight type, and per side the adjacency the MFBF frontier
// is seeded from, the side's planner, and its source membership (nil = every
// source of the batch belongs to the side).
type sweepInput[W any] struct {
	a, at *distmat.Mat[W]
	adj   []*sparse.CSR[float64]
	pls   []planner
	in    [][]bool
}

// sweepRegion is one rank's sweep and reduce phases: every batch of sources
// through MFBF and MFBr, each side's dependencies accumulated into its own
// slice, then one allreduce of all sides' accumulators concatenated. It
// returns the reduced accumulators (side s at [s·n, (s+1)·n)), the
// iteration count and the batch count.
func sweepRegion[W, M, C any](sess *spgemm.Session, alg sides[W, M, C], in sweepInput[W], sources []int32, nb int) ([]float64, int, int) {
	proc := sess.Proc
	world := proc.World()
	n := in.a.Cols
	shard := distmat.DistShard(world.Size())
	proc.Phase(machine.PhaseSweep)
	acc := make([]float64, alg.n*n)
	iters, batches := 0, 0
	for _, batch := range batchList(n, nb, sources) {
		batches++
		t, itF := mfbf(sess, alg, in, batch, shard)
		z, t, itB, dists := mfbr(sess, alg, in, t, batch)
		iters += itF + itB
		// Each side accumulates under the distribution its one-sided sweep
		// ended in (a free no-op whenever the sides agreed on the final
		// plan), so the per-rank partial sums — and the rounding of the
		// closing allreduce — group exactly as a one-sided run's do.
		for s, d := range dists {
			bc := acc[s*n : (s+1)*n]
			zs := distmat.Redistribute(world, z, d, alg.cent.mon)
			ts := distmat.Redistribute(world, t, d, alg.mult.mon)
			distmat.ZipJoin(zs, ts, func(_, j int32, zc C, tm M) {
				bc[j] += alg.cent.get(zc, s).P * alg.mult.get(tm, s).M
			})
		}
	}
	// One deferred dense reduction accumulates λ across processors.
	proc.Phase(machine.PhaseReduce)
	return machine.Allreduce(world, acc, func(a, b float64) float64 { return a + b }), iters, batches
}

// liveCounts counts, with one allreduce of one element per side, the
// entries of m whose side-s component is live: each side's global frontier
// size, the planner input its one-sided sweep would measure — and whether
// any side is still live. With one side this is exactly a GlobalNNZ.
func liveCounts[V, E any](world *machine.Comm, m *distmat.Mat[V], d comp[V, E], n int) ([]int64, bool) {
	cnt := make([]int64, n)
	for _, e := range m.Local {
		for s := range cnt {
			if d.live(d.get(e.V, s)) {
				cnt[s]++
			}
		}
	}
	cnt = machine.Allreduce(world, cnt, func(a, b int64) int64 { return a + b })
	live := false
	for _, c := range cnt {
		live = live || c > 0
	}
	return cnt, live
}

// fusedDualProducts counts per-side products executed because the sides'
// automatic plans diverged — test observability for the plan fidelity of
// the fused path. Every rank of every region increments it.
var fusedDualProducts atomic.Int64

// mulSides runs one frontier product with per-side plans. When the live
// sides all chose the same plan (always, with one side), a single multiply
// executes under it, and the componentwise-exact identities make each live
// side bit-identical to its one-sided product; with no live side it is the
// last side's plan. When the plans diverge, the frontier is masked per side
// and each mask is multiplied under its own side's plan, then the products
// are merged into the first live side's output distribution. The extra
// product is the honest price of replaying every side's plan sequence
// exactly, paid only on divergent iterations.
func mulSides[V, E, W any](
	sess *spgemm.Session, plans []spgemm.Plan, nnz []int64,
	frontier *distmat.Mat[V], b *distmat.Mat[W], f func(V, W) V,
	d comp[V, E], wmon algebra.Monoid[W],
) *distmat.Mat[V] {
	var live []int
	for s, c := range nnz {
		if c > 0 {
			live = append(live, s)
		}
	}
	plan := plans[len(plans)-1]
	if len(live) > 0 {
		plan = plans[live[0]]
	}
	diverged := false
	for _, s := range live {
		diverged = diverged || plans[s] != plan
	}
	if !diverged {
		return spgemm.Multiply(sess, plan, frontier, b, f, d.mon, d.mon, wmon, true)
	}
	fusedDualProducts.Add(1)
	world := sess.Proc.World()
	var out *distmat.Mat[V]
	for _, s := range live {
		// Mask onto side s: the operand side s's one-sided sweep multiplies.
		masked := &distmat.Mat[V]{Rows: frontier.Rows, Cols: frontier.Cols, Dist: frontier.Dist}
		for _, e := range frontier.Local {
			if x := d.get(e.V, s); d.live(x) {
				masked.Local = append(masked.Local, sparse.Entry[V]{I: e.I, J: e.J, V: d.with(d.mon.Identity, s, x)})
			}
		}
		ext := spgemm.Multiply(sess, plans[s], masked, b, f, d.mon, d.mon, wmon, true)
		if out == nil {
			out = ext
		} else {
			out = distmat.EWise(out, distmat.Redistribute(world, ext, out.Dist, d.mon), d.mon)
		}
	}
	return out
}

// mfbf is Algorithm 1 on distributed matrices. Row i of the frontier is
// source batch[i]; side s is seeded from its own adjacency when the source
// belongs to it, and each side plans every product from its own live
// frontier count with the scalar wire sizes.
func mfbf[W, M, C any](sess *spgemm.Session, alg sides[W, M, C], in sweepInput[W], batch []int32, shard distmat.Dist) (*distmat.Mat[M], int) {
	mon := alg.mult.mon
	world := sess.Proc.World()
	n := in.a.Cols
	nb := len(batch)

	// T init: the source rows of A with multiplicity 1, built locally from
	// the replicated generator data under the neutral shard distribution.
	init := sparse.NewCOO[M](nb, n)
	for s := 0; s < alg.n; s++ {
		for i, src := range batch {
			if in.in[s] != nil && !in.in[s][src] {
				continue
			}
			cols, vals := in.adj[s].Row(int(src))
			for k, v := range cols {
				if v != src {
					init.Append(int32(i), v, alg.mult.with(mon.Identity, s, algebra.MultPath{W: vals[k], M: 1}))
				}
			}
		}
	}
	t := distmat.FromGlobal(world.Rank(), init, shard, mon)
	frontier := t
	iters := 0
	plans := make([]spgemm.Plan, alg.n)
	for {
		nnz, live := liveCounts(world, frontier, alg.mult, alg.n)
		if !live {
			break
		}
		iters++
		if iters > n+1 {
			panic("core: distributed MFBF failed to converge")
		}
		for s, c := range nnz {
			if c > 0 {
				plans[s] = in.pls[s].planFor(nb, c, multpathBytes)
			}
		}
		ext := mulSides(sess, plans, nnz, frontier, in.a, alg.bf, alg.mult, alg.weight)
		ext = ext.Filter(func(i, j int32, _ M) bool { return j != batch[i] })
		t = distmat.Redistribute(world, t, ext.Dist, mon)
		tNew := distmat.EWise(t, ext, mon)
		frontier = &distmat.Mat[M]{Rows: nb, Cols: n, Dist: ext.Dist, Local: alg.screenFrontier(ext.Local, tNew.Local)}
		t = tNew
	}
	return t, iters
}

// mfbr is Algorithm 2 on distributed matrices. Alongside Z, the realigned
// T and the iteration count, it returns each side's final output
// distribution: the one that side's one-sided sweep would leave Z in.
func mfbr[W, M, C any](sess *spgemm.Session, alg sides[W, M, C], in sweepInput[W], t *distmat.Mat[M], batch []int32) (*distmat.Mat[C], *distmat.Mat[M], int, []distmat.Dist) {
	cmon, mmon := alg.cent.mon, alg.mult.mon
	world := sess.Proc.World()
	n := t.Cols
	nb := len(batch)
	plans := make([]spgemm.Plan, alg.n)
	dists := make([]distmat.Dist, alg.n)
	replan := func(nnz []int64, all bool) {
		for s, c := range nnz {
			if all || c > 0 {
				plans[s] = in.pls[s].planFor(nb, c, centpathBytes)
				_, _, dists[s] = spgemm.Dists(plans[s], nb, n, n)
			}
		}
	}

	// Child counting: one product of the full T pattern with Aᵀ — much
	// denser than any frontier product, so it gets its own plan.
	z0 := distmat.Map(t, cmon, func(_, _ int32, v M) C {
		out := cmon.Identity
		for s := 0; s < alg.n; s++ {
			if x := alg.mult.get(v, s); alg.mult.live(x) {
				out = alg.cent.with(out, s, algebra.CentPath{W: x.W, P: 0, C: 1})
			}
		}
		return out
	})
	nnzT, _ := liveCounts(world, t, alg.mult, alg.n)
	replan(nnzT, true)
	p1 := mulSides(sess, plans, nnzT, z0, in.at, alg.br, alg.cent, alg.weight)
	t = distmat.Redistribute(world, t, p1.Dist, mmon)
	counts := alg.screenCent(p1.Local, t.Local)

	z := &distmat.Mat[C]{Rows: nb, Cols: n, Dist: t.Dist, Local: alg.buildZ(t.Local, counts)}
	frontier := &distmat.Mat[C]{Rows: nb, Cols: n, Dist: t.Dist, Local: alg.collectFrontier(z.Local, t.Local)}

	iters := 0
	for {
		nnz, live := liveCounts(world, frontier, alg.cent, alg.n)
		if !live {
			break
		}
		iters++
		if iters > n+1 {
			panic("core: distributed MFBr failed to converge")
		}
		// A side whose one-sided loop has already terminated keeps its last
		// plan and distribution; its components ride along as exact zeros.
		replan(nnz, false)
		p := mulSides(sess, plans, nnz, frontier, in.at, alg.br, alg.cent, alg.weight)
		// Keep Z and T aligned with the product's distribution.
		if p.Dist.Key != z.Dist.Key {
			t = distmat.Redistribute(world, t, p.Dist, mmon)
			z = distmat.Redistribute(world, z, p.Dist, cmon)
		}
		pScreened := &distmat.Mat[C]{Rows: nb, Cols: n, Dist: p.Dist, Local: alg.screenCent(p.Local, t.Local)}
		z = distmat.EWise(z, pScreened, cmon)
		frontier = &distmat.Mat[C]{Rows: nb, Cols: n, Dist: z.Dist, Local: alg.collectFrontier(z.Local, t.Local)}
	}
	return z, t, iters, dists
}

// screenFrontier implements Algorithm 1 line 6 side by side: a side's
// extension component survives when its weight matches the accumulated T
// at the same coordinate (both slices sorted, identically distributed), so
// one side's survival never resurrects another.
func (alg sides[W, M, C]) screenFrontier(ext, t []sparse.Entry[M]) []sparse.Entry[M] {
	var out []sparse.Entry[M]
	d := alg.mult
	y := 0
	for _, e := range ext {
		for y < len(t) && entryLess(t[y], e) {
			y++
		}
		if y >= len(t) || t[y].I != e.I || t[y].J != e.J {
			continue
		}
		v := d.mon.Identity
		for s := 0; s < alg.n; s++ {
			x := d.get(e.V, s)
			//lint:allow floateq screening requires an exact match of bit-identically replicated weights
			if d.live(x) && d.get(t[y].V, s).W == x.W && x.M > 0 {
				v = d.with(v, s, x)
			}
		}
		if !d.mon.IsZero(v) {
			out = append(out, sparse.Entry[M]{I: e.I, J: e.J, V: v})
		}
	}
	return out
}

// screenCent keeps, side by side, the centpath components whose weight
// matches T's at the same coordinate; everything else is a spurious
// back-propagation artifact. A dead T component has weight +∞ and a dead
// centpath component −∞, so the equality alone screens liveness.
func (alg sides[W, M, C]) screenCent(p []sparse.Entry[C], t []sparse.Entry[M]) []sparse.Entry[C] {
	var out []sparse.Entry[C]
	d := alg.cent
	y := 0
	for _, e := range p {
		for y < len(t) && entryLess(t[y], e) {
			y++
		}
		if y >= len(t) || t[y].I != e.I || t[y].J != e.J {
			continue
		}
		v := d.mon.Identity
		for s := 0; s < alg.n; s++ {
			x := d.get(e.V, s)
			//lint:allow floateq screening requires an exact match of bit-identically replicated weights
			if alg.mult.get(t[y].V, s).W == x.W {
				v = d.with(v, s, x)
			}
		}
		if !d.mon.IsZero(v) {
			out = append(out, sparse.Entry[C]{I: e.I, J: e.J, V: v})
		}
	}
	return out
}

func entryLess[T, U any](a sparse.Entry[T], b sparse.Entry[U]) bool {
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

// buildZ merges the T pattern with the screened child counts (both sorted,
// same distribution): every live T component appears with counter = its
// number of shortest-path-DAG children; dead components stay exact zeros.
func (alg sides[W, M, C]) buildZ(t []sparse.Entry[M], counts []sparse.Entry[C]) []sparse.Entry[C] {
	out := make([]sparse.Entry[C], 0, len(t))
	y := 0
	for _, e := range t {
		for y < len(counts) && entryLess(counts[y], e) {
			y++
		}
		hit := y < len(counts) && counts[y].I == e.I && counts[y].J == e.J
		v := alg.cent.mon.Identity
		for s := 0; s < alg.n; s++ {
			x := alg.mult.get(e.V, s)
			if !alg.mult.live(x) {
				continue
			}
			var c int64
			if hit {
				c = alg.cent.get(counts[y].V, s).C // a dead counts component has C = 0
			}
			v = alg.cent.with(v, s, algebra.CentPath{W: x.W, P: 0, C: c})
		}
		out = append(out, sparse.Entry[C]{I: e.I, J: e.J, V: v})
	}
	return out
}

// collectFrontier extracts, side by side, the Z components whose counter
// just reached zero (all children reported), emitting (T.w, ζ + 1/σ̄, −1)
// and marking them done in place. Z and T share their sparsity pattern.
func (alg sides[W, M, C]) collectFrontier(z []sparse.Entry[C], t []sparse.Entry[M]) []sparse.Entry[C] {
	var out []sparse.Entry[C]
	d := alg.cent
	for k := range z {
		v := d.mon.Identity
		emit := false
		for s := 0; s < alg.n; s++ {
			x := d.get(z[k].V, s)
			if !d.live(x) || x.C != 0 {
				continue
			}
			v = d.with(v, s, algebra.CentPath{W: x.W, P: x.P + 1/alg.mult.get(t[k].V, s).M, C: -1})
			x.C = -1
			z[k].V = d.with(z[k].V, s, x)
			emit = true
		}
		if emit {
			out = append(out, sparse.Entry[C]{I: z[k].I, J: z[k].J, V: v})
		}
	}
	return out
}
