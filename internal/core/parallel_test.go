package core

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// TestMFBCWorkersInvariant: betweenness scores are bit-identical for every
// worker count, on weighted and unweighted graphs (the parallel kernels
// must not perturb float summation order).
func TestMFBCWorkersInvariant(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := graph.RMAT(graph.DefaultRMAT(8, 8, 5))
		if weighted {
			g.AddUniformWeights(1, 10, 6)
		}
		base, err := MFBC(g, Options{Batch: 32, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{0, 2, 3, 8} {
			res, err := MFBC(g, Options{Batch: 32, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != base.Ops || res.Iterations != base.Iterations {
				t.Fatalf("weighted=%v workers=%d: ops/iters differ (%d/%d vs %d/%d)",
					weighted, w, res.Ops, res.Iterations, base.Ops, base.Iterations)
			}
			for v := range base.BC {
				if res.BC[v] != base.BC[v] {
					t.Fatalf("weighted=%v workers=%d: BC[%d] = %v, want %v",
						weighted, w, v, res.BC[v], base.BC[v])
				}
			}
		}
	}
}

// TestMFBFParallelMatchesSequential checks the T matrix itself, not just
// the folded scores.
func TestMFBFParallelMatchesSequential(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(8, 8, 9))
	a := g.Adjacency()
	sources := make([]int32, 48)
	for i := range sources {
		sources[i] = int32(i * (g.N / 48))
	}
	want, wantOps, wantIt := MFBFParallel(a, sources, 1)
	for _, w := range []int{2, 4} {
		got, ops, it := MFBFParallel(a, sources, w)
		if ops != wantOps || it != wantIt {
			t.Fatalf("workers=%d: ops/iters %d/%d, want %d/%d", w, ops, it, wantOps, wantIt)
		}
		if !sparse.Equal(got, want, func(x, y algebra.MultPath) bool { return x == y }) {
			t.Fatalf("workers=%d: T matrix differs from sequential MFBF", w)
		}
	}
}

// TestMFBCDistributedWorkersInvariant: the distributed engine must also be
// worker-count invariant (parallel local kernels inside simulated ranks).
func TestMFBCDistributedWorkersInvariant(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(7, 8, 11))
	base, err := MFBCDistributed(g, DistOptions{Procs: 4, Batch: 32, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 3} {
		res, err := MFBCDistributed(g, DistOptions{Procs: 4, Batch: 32, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for v := range base.BC {
			if res.BC[v] != base.BC[v] {
				t.Fatalf("workers=%d: BC[%d] = %v, want %v", w, v, res.BC[v], base.BC[v])
			}
		}
	}
}
