package core

import (
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/spgemm"
)

func checkDistAgainstBrandes(t *testing.T, g *graph.Graph, opt DistOptions) *DistResult {
	t.Helper()
	want := baseline.Brandes(g)
	got, err := MFBCDistributed(g, opt)
	if err != nil {
		t.Fatalf("%s (p=%d): %v", g.Name, opt.Procs, err)
	}
	for v := range want {
		if !almostEqual(got.BC[v], want[v]) {
			t.Fatalf("%s (p=%d, plan=%s): BC[%d]=%g, Brandes says %g",
				g.Name, opt.Procs, got.Plan, v, got.BC[v], want[v])
		}
	}
	return got
}

func TestDistMFBCSingleProc(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 6, 3))
	checkDistAgainstBrandes(t, g, DistOptions{Procs: 1, Batch: 16})
}

func TestDistMFBCProcCounts(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 8, 5))
	for _, p := range []int{2, 4, 8, 16} {
		checkDistAgainstBrandes(t, g, DistOptions{Procs: p, Batch: 32})
	}
}

func TestDistMFBCWeighted(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 6, 9))
	g.AddUniformWeights(1, 100, 17)
	checkDistAgainstBrandes(t, g, DistOptions{Procs: 4, Batch: 16})
}

func TestDistMFBCDirected(t *testing.T) {
	opt := graph.DefaultRMAT(6, 5, 13)
	opt.Directed = true
	g := graph.RMAT(opt)
	checkDistAgainstBrandes(t, g, DistOptions{Procs: 4, Batch: 16})
}

func TestDistMFBCDirectedWeighted(t *testing.T) {
	opt := graph.DefaultRMAT(5, 6, 19)
	opt.Directed = true
	g := graph.RMAT(opt)
	g.AddUniformWeights(1, 9, 4)
	checkDistAgainstBrandes(t, g, DistOptions{Procs: 6, Batch: 8})
}

func TestDistMFBCForcedPlans(t *testing.T) {
	g := graph.Uniform(100, 600, false, 8)
	plans := []spgemm.Plan{
		{P1: 8, P2: 1, P3: 1, X: spgemm.RoleB, YZ: spgemm.VarAB}, // 1D replicate adjacency
		{P1: 1, P2: 4, P3: 2, X: spgemm.RoleA, YZ: spgemm.VarAB}, // pure 2D SUMMA
		{P1: 1, P2: 2, P3: 4, X: spgemm.RoleA, YZ: spgemm.VarAC}, // 2D with C reduction
		{P1: 1, P2: 2, P3: 4, X: spgemm.RoleA, YZ: spgemm.VarBC}, // 2D, adjacency stationary
		{P1: 2, P2: 2, P3: 2, X: spgemm.RoleB, YZ: spgemm.VarAC}, // Theorem 5.1 layout
		{P1: 2, P2: 2, P3: 2, X: spgemm.RoleC, YZ: spgemm.VarAB}, // k-split layers
		{P1: 2, P2: 2, P3: 2, X: spgemm.RoleA, YZ: spgemm.VarBC}, // frontier-replicating 3D
	}
	for _, plan := range plans {
		plan := plan
		t.Run(plan.String(), func(t *testing.T) {
			checkDistAgainstBrandes(t, g, DistOptions{Procs: plan.Procs(), Batch: 16, Plan: &plan})
		})
	}
}

func TestDistMFBCConstraints(t *testing.T) {
	g := graph.Uniform(80, 500, true, 12)
	for _, cons := range []spgemm.Constraint{spgemm.Only1D, spgemm.Only2D, spgemm.Only3D} {
		checkDistAgainstBrandes(t, g, DistOptions{Procs: 8, Batch: 16, Constraint: cons})
	}
}

func TestDistMFBCBatchSizes(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 6, 23))
	for _, nb := range []int{1, 5, 64, 1 << 10} {
		checkDistAgainstBrandes(t, g, DistOptions{Procs: 4, Batch: nb})
	}
}

func TestDistMFBCDisconnected(t *testing.T) {
	g := &graph.Graph{Name: "twocomp", N: 9}
	g.Edges = []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1},
		{U: 4, V: 5, W: 1}, {U: 5, V: 6, W: 1}, {U: 6, V: 7, W: 1},
	}
	checkDistAgainstBrandes(t, g, DistOptions{Procs: 4, Batch: 4})
}

func TestDistMFBCCostsAccumulate(t *testing.T) {
	g := graph.RMAT(graph.DefaultRMAT(6, 8, 29))
	res := checkDistAgainstBrandes(t, g, DistOptions{Procs: 8, Batch: 32})
	if res.Stats.MaxCost.Bytes == 0 || res.Stats.MaxCost.Msgs == 0 {
		t.Fatalf("distributed run charged no communication: %v", res.Stats.MaxCost)
	}
	if res.Stats.MaxCost.Flops == 0 {
		t.Fatal("distributed run charged no computation")
	}
	if res.Stats.ModelSec <= 0 || res.Stats.CommSec <= 0 {
		t.Fatal("modeled times must be positive")
	}
	// More processors must not increase per-processor critical-path flops
	// by more than the imbalance allowance.
	res1, err := MFBCDistributed(g, DistOptions{Procs: 1, Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxCost.Flops > res1.Stats.MaxCost.Flops*2 {
		t.Fatalf("p=8 critical path flops %d exceed 2x the p=1 work %d",
			res.Stats.MaxCost.Flops, res1.Stats.MaxCost.Flops)
	}
}

// TestDistributedP1BitwiseEqualsSequential pins the fold-order rule end to
// end: at p=1 every stage product of the distributed path runs through the
// same local kernel as the sequential path, in the same order, so the two
// paths' scores agree bit for bit — not merely within tolerance.
func TestDistributedP1BitwiseEqualsSequential(t *testing.T) {
	weighted := graph.RMAT(graph.DefaultRMAT(8, 8, 31))
	weighted.AddUniformWeights(1, 100, 7)
	dopt := graph.DefaultRMAT(8, 6, 37)
	dopt.Directed = true
	for _, g := range []*graph.Graph{graph.RMAT(graph.DefaultRMAT(8, 8, 41)), weighted, graph.RMAT(dopt)} {
		want, err := MFBC(g, Options{Batch: 64})
		if err != nil {
			t.Fatal(err)
		}
		got, err := MFBCDistributed(g, DistOptions{Procs: 1, Batch: 64})
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.BC {
			if math.Float64bits(got.BC[v]) != math.Float64bits(want.BC[v]) {
				t.Fatalf("%s (weighted=%v, directed=%v): BC[%d] = %v at p=1, sequential %v",
					g.Name, g.Weighted, g.Directed, v, got.BC[v], want.BC[v])
			}
		}
	}
}
