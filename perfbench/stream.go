package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro"
	"repro/internal/core"
	"repro/internal/graph"
)

// band is a class of mutation by how many sources it affects: how many
// sources' shortest-path DAGs contain the mutated edge before or after
// the change. The dynamic engine's detector computes the same set; with
// its default 0.25 dirty threshold a zero-band apply is a no-op, a
// small-band apply runs incrementally and a large-band apply falls back
// to a full recompute.
type band int

const (
	bandZero  band = iota // no source affected
	bandSmall             // at most 1% of the vertices
	bandLarge             // at least half of the vertices
)

// The small band is narrow because an incremental apply's cost grows with
// the sources it recomputes: on dist-stream's graph, about 20 ms of
// process CPU plus 9 ms per source. With a band of 1–5% (2–10 sources),
// the sources each seed happened to draw moved the median apply by 14%
// between seeds.

func (b band) String() string { return [...]string{"zero", "small", "large"}[b] }

// blockBands is the fixed composition of every block of the stream, in
// the order a block is drawn before its seeded shuffle. Fixing the
// composition keeps the no-op / incremental / fallback split, which
// dominates the apply cost, the same on every seed.
var blockBands = []band{
	bandZero, bandZero, bandZero,
	bandSmall, bandSmall, bandSmall, bandSmall, bandSmall,
	bandLarge, bandLarge,
}

// streamGen draws a seeded stream of single-mutation batches — weighted
// edge inserts and weight changes, every one valid on the graph it meets
// — against its own copy of the graph, which it keeps in step by applying
// what it emits.
type streamGen struct {
	g      *graph.Graph
	rng    *rand.Rand
	maxW   int
	dist   [][]float64 // all-pairs distances of g
	blocks int
}

func newStreamGen(g *graph.Graph, maxW int, seed int64) (*streamGen, error) {
	sg := &streamGen{g: g.Clone(), rng: rand.New(rand.NewSource(seed)), maxW: maxW}
	var err error
	sg.dist, err = allPairs(sg.g)
	return sg, err
}

// nextBlock returns the next len(blockBands) mutations with their bands.
func (sg *streamGen) nextBlock() ([]repro.Mutation, []band, error) {
	bands := append([]band(nil), blockBands...)
	sg.rng.Shuffle(len(bands), func(i, j int) { bands[i], bands[j] = bands[j], bands[i] })
	muts := make([]repro.Mutation, len(bands))
	for i, b := range bands {
		m, err := sg.draw(b)
		if err != nil {
			return nil, nil, fmt.Errorf("stream block %d slot %d: %w", sg.blocks, i, err)
		}
		if err := sg.g.Apply(m); err != nil {
			return nil, nil, fmt.Errorf("stream: generated mutation %v is invalid: %w", m, err)
		}
		if sg.dist, err = allPairs(sg.g); err != nil {
			return nil, nil, err
		}
		muts[i] = m
	}
	sg.blocks++
	return muts, bands, nil
}

// draw samples candidate mutations until one falls in band b.
func (sg *streamGen) draw(b band) (repro.Mutation, error) {
	const attempts = 20000
	n := sg.g.N
	for range attempts {
		w := float64(1 + sg.rng.Intn(sg.maxW))
		var m repro.Mutation
		var wOld float64
		if sg.rng.Intn(2) == 0 {
			e := sg.g.Edges[sg.rng.Intn(len(sg.g.Edges))]
			if w == e.W { //lint:allow floateq weights are small integers, exact in float64
				continue
			}
			m, wOld = repro.Mutation{Op: repro.MutSetWeight, U: e.U, V: e.V, W: w}, e.W
		} else {
			u, v := int32(sg.rng.Intn(n)), int32(sg.rng.Intn(n))
			if _, ok := sg.g.FindEdge(u, v); ok || u == v {
				continue
			}
			m, wOld = repro.Mutation{Op: repro.MutAddEdge, U: u, V: v, W: w}, math.Inf(1)
		}
		if bandOf(sg.affected(m.U, m.V, wOld, m.W), n) == b {
			return m, nil
		}
	}
	return repro.Mutation{}, fmt.Errorf("no %s-band mutation in %d draws", b, attempts)
}

// bandOf classifies an affected-source count; counts between the bands
// are -1 and never drawn.
func bandOf(affected, n int) band {
	switch {
	case affected == 0:
		return bandZero
	case affected*100 <= n:
		return bandSmall
	case affected*2 >= n:
		return bandLarge
	}
	return -1
}

// affected counts the sources s for which the undirected edge u–v lies
// on a shortest path with its old weight wOld (+Inf when absent) or its
// new weight wNew. A single changed edge is used at most once on a
// shortest path, so the new distances follow from the old ones.
func (sg *streamGen) affected(u, v int32, wOld, wNew float64) int {
	count := 0
	for s := range sg.dist {
		du, dv := sg.dist[s][u], sg.dist[s][v]
		hit := tight(du, dv, wOld) || tight(dv, du, wOld)
		if !hit && wNew < wOld {
			nu, nv := math.Min(du, dv+wNew), math.Min(dv, du+wNew)
			hit = tight(nu, nv, wNew) || tight(nv, nu, wNew)
		}
		if hit {
			count++
		}
	}
	return count
}

// tight reports d(s,a) + w == d(s,b) for finite distances.
func tight(da, db, w float64) bool {
	return !math.IsInf(da, 1) && !math.IsInf(w, 1) && da+w == db //lint:allow floateq integer weights make path sums exact
}

// allPairs returns the shortest-path distances between every pair of
// vertices of g (+Inf when unreachable).
func allPairs(g *graph.Graph) ([][]float64, error) {
	sources := make([]int32, g.N)
	for s := range sources {
		sources[s] = int32(s)
	}
	res, err := core.SSSP(g, sources)
	if err != nil {
		return nil, err
	}
	return res.Dist, nil
}
