package server

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// TestIngestGroupCommitCoalesces pins the tentpole win: K writers queued
// behind a held serializer commit as ONE group — one engine apply, every
// waiter acknowledged with the same committed version and the group's
// effective (post-coalescing) op count.
func TestIngestGroupCommitCoalesces(t *testing.T) {
	s := New(Config{Workers: 1})
	g := repro.GridGraph(6, 6, 1, 1)
	n := int32(g.N)
	if _, err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}

	// Hold the per-graph serializer so the elected drainer blocks and the
	// whole round accumulates into one group.
	lk := s.mutLockFor("g")
	lk.Lock()

	const K = 8
	results := make(chan *MutateResult, K)
	errs := make(chan error, K)
	for i := 0; i < K; i++ {
		// K distinct diagonal chords, none a grid edge: individually valid.
		u := int32(i)
		go func() {
			res, err := s.MutateDurable(context.Background(), "g",
				[]repro.Mutation{{Op: repro.MutAddEdge, U: u, V: n - 1 - u, W: 1}},
				DurabilityApplied)
			if err != nil {
				errs <- err
				return
			}
			results <- res
		}()
	}
	waitFor(t, "all batches queued", func() bool { return s.Stats().IngestDepth == K })
	lk.Unlock()

	var version uint64
	for i := 0; i < K; i++ {
		select {
		case err := <-errs:
			t.Fatalf("batch failed: %v", err)
		case res := <-results:
			if i == 0 {
				version = res.Version
			}
			if res.Version != version {
				t.Fatalf("group members report different versions: %d vs %d", res.Version, version)
			}
			if res.CoalescedBatches != K {
				t.Fatalf("CoalescedBatches = %d, want %d", res.CoalescedBatches, K)
			}
			if res.Applied != K {
				t.Fatalf("Applied = %d, want %d (the group's merged op count)", res.Applied, K)
			}
			if res.QueueWaitMS <= 0 {
				t.Fatalf("QueueWaitMS = %v, want > 0 for a batch that waited on the serializer", res.QueueWaitMS)
			}
			if res.Queued {
				t.Fatal("applied-durability result marked Queued")
			}
		}
	}

	st := s.Stats()
	if st.IngestEnqueued != K || st.IngestCoalesced != K {
		t.Fatalf("enqueued/coalesced = %d/%d, want %d/%d", st.IngestEnqueued, st.IngestCoalesced, K, K)
	}
	if st.IngestCommits != 1 {
		t.Fatalf("IngestCommits = %d, want 1 (one group commit for the whole round)", st.IngestCommits)
	}
	if st.Mutations != 1 {
		t.Fatalf("Mutations = %d, want 1 engine apply for %d writers", st.Mutations, K)
	}
	if st.IngestDepth != 0 {
		t.Fatalf("IngestDepth = %d after drain, want 0", st.IngestDepth)
	}
	info, err := s.GraphInfoFor("g")
	if err != nil {
		t.Fatal(err)
	}
	if wantM := 60 + K; info.M != wantM {
		t.Fatalf("final m = %d, want %d (every chord landed)", info.M, wantM)
	}
}

// TestIngestEnqueuedDurability: an enqueued-durability PATCH acks before
// the apply with the pre-commit version, and the commit still lands
// asynchronously.
func TestIngestEnqueuedDurability(t *testing.T) {
	s := New(Config{Workers: 1, IngestDurability: DurabilityEnqueued})
	if _, err := s.AddGraph("g", repro.GridGraph(5, 5, 1, 1)); err != nil {
		t.Fatal(err)
	}
	info, _ := s.GraphInfoFor("g")

	res, err := s.MutateDurable(context.Background(), "g",
		[]repro.Mutation{{Op: repro.MutAddEdge, U: 0, V: 24, W: 1}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Queued || res.QueueDepth != 1 {
		t.Fatalf("ack = %+v, want Queued at depth 1", res)
	}
	if res.Version != info.Version {
		t.Fatalf("enqueued ack version = %d, want the pre-commit %d", res.Version, info.Version)
	}
	waitFor(t, "async commit", func() bool { return s.Stats().Mutations == 1 })
	after, err := s.GraphInfoFor("g")
	if err != nil {
		t.Fatal(err)
	}
	if after.Version == info.Version || after.M != info.M+1 {
		t.Fatalf("commit did not land: version %d→%d, m %d→%d", info.Version, after.Version, info.M, after.M)
	}

	// A per-request override flips one batch back to applied durability.
	res, err = s.MutateDurable(context.Background(), "g",
		[]repro.Mutation{{Op: repro.MutAddEdge, U: 1, V: 23, W: 1}}, DurabilityApplied)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queued || res.Version == after.Version {
		t.Fatalf("applied override still acked pre-commit: %+v", res)
	}

	if _, err := s.MutateDurable(context.Background(), "g", nil, ""); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := s.MutateDurable(context.Background(), "g",
		[]repro.Mutation{{Op: repro.MutAddVertex}}, "eventually"); err == nil {
		t.Fatal("unknown durability accepted")
	}
}

// TestIngestBackpressure: beyond IngestMaxDepth the server sheds load
// with ErrIngestBackpressure, and the HTTP layer maps it to 429 +
// Retry-After.
func TestIngestBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, IngestMaxDepth: 2, IngestDurability: DurabilityEnqueued})
	if _, err := s.AddGraph("g", repro.GridGraph(5, 5, 1, 1)); err != nil {
		t.Fatal(err)
	}
	lk := s.mutLockFor("g")
	lk.Lock()

	add := func(u, v int32) (*MutateResult, error) {
		return s.MutateDurable(context.Background(), "g",
			[]repro.Mutation{{Op: repro.MutAddEdge, U: u, V: v, W: 1}}, "")
	}
	if _, err := add(0, 24); err != nil {
		t.Fatal(err)
	}
	if _, err := add(1, 23); err != nil {
		t.Fatal(err)
	}
	if _, err := add(2, 22); !errors.Is(err, ErrIngestBackpressure) {
		t.Fatalf("over-depth mutate: %v, want ErrIngestBackpressure", err)
	}

	// The HTTP mapping: 429 with a Retry-After hint.
	mux := NewMux(s)
	req := httptest.NewRequest("PATCH", "/graphs/g",
		bytes.NewBufferString(`{"mutations":[{"op":"add_edge","u":3,"v":21,"w":1}]}`))
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, req)
	if rw.Code != http.StatusTooManyRequests {
		t.Fatalf("HTTP status = %d, want 429; body %s", rw.Code, rw.Body.String())
	}
	if rw.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", rw.Header().Get("Retry-After"))
	}
	if s.Stats().IngestRejected != 2 {
		t.Fatalf("IngestRejected = %d, want 2", s.Stats().IngestRejected)
	}

	lk.Unlock()
	waitFor(t, "backlog drained", func() bool { return s.Stats().Mutations >= 1 && s.Stats().IngestDepth == 0 })
	// Capacity freed: the next batch is admitted.
	if _, err := add(4, 20); err != nil {
		t.Fatal(err)
	}
}

// TestIngestEnqueuedHTTPStatus: an enqueued-durability PATCH answers 202
// with queued=true, not 200.
func TestIngestEnqueuedHTTPStatus(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.AddGraph("g", repro.GridGraph(5, 5, 1, 1)); err != nil {
		t.Fatal(err)
	}
	mux := NewMux(s)
	req := httptest.NewRequest("PATCH", "/graphs/g",
		bytes.NewBufferString(`{"mutations":[{"op":"add_edge","u":0,"v":24,"w":1}],"durability":"enqueued"}`))
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, req)
	if rw.Code != http.StatusAccepted {
		t.Fatalf("HTTP status = %d, want 202; body %s", rw.Code, rw.Body.String())
	}
	if !bytes.Contains(rw.Body.Bytes(), []byte(`"queued":true`)) {
		t.Fatalf("202 body missing queued flag: %s", rw.Body.String())
	}
}

// TestIngestInvalidBatchRejectedIndividually: group commit preserves
// sequential-apply error semantics — an invalid batch inside a group gets
// its own error while its neighbors commit.
func TestIngestInvalidBatchRejectedIndividually(t *testing.T) {
	s := New(Config{Workers: 1})
	g := repro.GridGraph(6, 6, 1, 1)
	n := int32(g.N)
	if _, err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	lk := s.mutLockFor("g")
	lk.Lock()

	type out struct {
		res *MutateResult
		err error
	}
	outs := make([]chan out, 3)
	batches := [][]repro.Mutation{
		{{Op: repro.MutAddEdge, U: 0, V: n - 1, W: 1}},
		{{Op: repro.MutAddEdge, U: 0, V: n - 1, W: 1}}, // duplicate of batch 0: invalid vs the group's shadow
		{{Op: repro.MutAddEdge, U: 1, V: n - 2, W: 1}},
	}
	for i, muts := range batches {
		outs[i] = make(chan out, 1)
		ch, b := outs[i], muts
		go func() {
			res, err := s.MutateDurable(context.Background(), "g", b, DurabilityApplied)
			ch <- out{res, err}
		}()
		// Arrival order matters to the assertion; queue them one by one.
		want := i + 1
		waitFor(t, "batch queued", func() bool { return s.Stats().IngestDepth == want })
	}
	lk.Unlock()

	if o := <-outs[0]; o.err != nil {
		t.Fatalf("batch 0: %v, want success", o.err)
	}
	if o := <-outs[1]; o.err == nil {
		t.Fatal("duplicate batch 1 committed, want its own validation error")
	}
	o2 := <-outs[2]
	if o2.err != nil {
		t.Fatalf("batch 2: %v, want success", o2.err)
	}
	if o2.res.CoalescedBatches != 2 {
		t.Fatalf("batch 2 CoalescedBatches = %d, want 2 (the invalid batch dropped out)", o2.res.CoalescedBatches)
	}
	st := s.Stats()
	if st.IngestBatchErrors != 1 {
		t.Fatalf("IngestBatchErrors = %d, want 1", st.IngestBatchErrors)
	}
	info, _ := s.GraphInfoFor("g")
	if info.M != 62 {
		t.Fatalf("final m = %d, want 62 (both valid chords, duplicate skipped)", info.M)
	}
}

// TestIngestReportsEffectiveBatch: the PATCH response reports the
// post-coalescing op count, not the caller's raw batch size — two
// redundant reweights of one edge commit as a single effective op.
func TestIngestReportsEffectiveBatch(t *testing.T) {
	s := New(Config{Workers: 1})
	g := repro.GridGraph(5, 5, 1, 1)
	e := g.Edges[0]
	if _, err := s.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	res, err := s.MutateDurable(context.Background(), "g", []repro.Mutation{
		{Op: repro.MutSetWeight, U: e.U, V: e.V, W: 3},
		{Op: repro.MutSetWeight, U: e.U, V: e.V, W: 5},
	}, DurabilityApplied)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("Applied = %d, want 1 (chained sets coalesce to the last)", res.Applied)
	}
	if res.CoalescedBatches != 1 {
		t.Fatalf("CoalescedBatches = %d, want 1", res.CoalescedBatches)
	}
	if w, ok := mustGraph(t, s, "g").FindEdge(e.U, e.V); !ok || w != 5 { //lint:allow floateq exact literal survives the apply
		t.Fatalf("edge weight = (%v,%v), want 5", w, ok)
	}
}

func mustGraph(t *testing.T, s *Server, name string) *repro.Graph {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	ge, ok := s.graphs[name]
	if !ok {
		t.Fatalf("graph %q not registered", name)
	}
	return ge.g
}

// TestGroupCommitDifferential is the acceptance differential: a seeded
// schedule of mutation rounds, each round forced into one group commit,
// must match a server applying the same batches as awaited groups of one
// — scores equal at 1e-9 on every round boundary, and equal to a
// from-scratch Compute at the end. Every batch's Seq is distinct and
// increasing in arrival order on both sides.
func TestGroupCommitDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		base := repro.GridGraph(6, 6, 3, seed)
		grouped := New(Config{Workers: 1})
		single := New(Config{Workers: 1})
		if _, err := grouped.AddGraph("g", base.Clone()); err != nil {
			t.Fatal(err)
		}
		if _, err := single.AddGraph("g", base.Clone()); err != nil {
			t.Fatal(err)
		}
		var lastGrouped, lastSingle uint64

		// shadow tracks the graph state batches are generated against, so
		// every batch is valid when applied in arrival order.
		shadow := base.Clone()
		for round := 0; round < 4; round++ {
			nb := 2 + rng.Intn(3)
			batches := make([][]repro.Mutation, nb)
			for b := range batches {
				for op := 0; op < 1+rng.Intn(2); op++ {
					var m repro.Mutation
					switch rng.Intn(3) {
					case 0: // reweight an existing edge
						e := shadow.Edges[rng.Intn(len(shadow.Edges))]
						m = repro.Mutation{Op: repro.MutSetWeight, U: e.U, V: e.V, W: float64(1 + rng.Intn(9))}
					case 1: // add a random non-edge
						u, v := int32(rng.Intn(shadow.N)), int32(rng.Intn(shadow.N))
						m = repro.Mutation{Op: repro.MutAddEdge, U: u, V: v, W: float64(1 + rng.Intn(4))}
					default: // remove an existing edge
						e := shadow.Edges[rng.Intn(len(shadow.Edges))]
						m = repro.Mutation{Op: repro.MutRemoveEdge, U: e.U, V: e.V}
					}
					if err := shadow.Apply(m); err != nil {
						continue // invalid proposal (self-loop, duplicate); skip
					}
					batches[b] = append(batches[b], m)
				}
				if len(batches[b]) == 0 {
					e := shadow.Edges[rng.Intn(len(shadow.Edges))]
					m := repro.Mutation{Op: repro.MutSetWeight, U: e.U, V: e.V, W: float64(2 + rng.Intn(5))}
					if err := shadow.Apply(m); err != nil {
						t.Fatal(err)
					}
					batches[b] = []repro.Mutation{m}
				}
			}

			// Oracle side: each batch awaited alone, a group of one.
			for _, b := range batches {
				res, err := single.Mutate("g", b)
				if err != nil {
					t.Fatalf("seed %d round %d: single apply: %v", seed, round, err)
				}
				if res.CoalescedBatches != 1 || res.Seq != lastSingle+1 {
					t.Fatalf("seed %d round %d: awaited batch: group of %d, seq %d after %d; want a group of one, seq %d",
						seed, round, res.CoalescedBatches, res.Seq, lastSingle, lastSingle+1)
				}
				lastSingle = res.Seq
			}
			// Grouped side: hold the serializer so the round lands as ONE
			// group commit, in the same arrival order.
			lk := grouped.mutLockFor("g")
			lk.Lock()
			type out struct {
				res *MutateResult
				err error
			}
			outs := make([]chan out, nb)
			for i, b := range batches {
				ch, muts := make(chan out, 1), b
				outs[i] = ch
				go func() {
					res, err := grouped.MutateDurable(context.Background(), "g", muts, DurabilityApplied)
					ch <- out{res, err}
				}()
				want := i + 1
				waitFor(t, "round queued in order", func() bool { return grouped.Stats().IngestDepth == want })
			}
			lk.Unlock()
			for i, ch := range outs {
				o := recv(t, "group commit", ch)
				if o.err != nil {
					t.Fatalf("seed %d round %d: group commit: %v", seed, round, o.err)
				}
				if o.res.CoalescedBatches != nb {
					t.Fatalf("seed %d round %d: batch %d rode a group of %d, want %d", seed, round, i, o.res.CoalescedBatches, nb)
				}
				if o.res.Seq != lastGrouped+1 {
					t.Fatalf("seed %d round %d: batch %d has seq %d after %d, want distinct seqs increasing in arrival order",
						seed, round, i, o.res.Seq, lastGrouped)
				}
				lastGrouped = o.res.Seq
			}
			if lastGrouped != lastSingle {
				t.Fatalf("seed %d round %d: grouped side at seq %d, single side at %d", seed, round, lastGrouped, lastSingle)
			}

			qa, err := grouped.Query(QueryRequest{Graph: "g", IncludeScores: true})
			if err != nil {
				t.Fatal(err)
			}
			qs, err := single.Query(QueryRequest{Graph: "g", IncludeScores: true})
			if err != nil {
				t.Fatal(err)
			}
			if !scoresAlmostEqual(qa.Scores, qs.Scores) {
				t.Fatalf("seed %d round %d: coalesced vs batch-by-batch scores diverge", seed, round)
			}
		}

		// Final cross-check against a from-scratch compute on the shadow.
		want, err := repro.Compute(shadow, repro.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		qa, err := grouped.Query(QueryRequest{Graph: "g", IncludeScores: true})
		if err != nil {
			t.Fatal(err)
		}
		if !scoresAlmostEqual(qa.Scores, want.BC) {
			t.Fatalf("seed %d: final coalesced scores diverge from from-scratch Compute", seed)
		}
	}
}

// TestIngestStatsReadback: /stats surfaces the ingest counters scraped by
// the load harness.
func TestIngestStatsReadback(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.AddGraph("g", repro.GridGraph(4, 4, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MutateDurable(context.Background(), "g",
		[]repro.Mutation{{Op: repro.MutAddEdge, U: 0, V: 15, W: 1}}, DurabilityApplied); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.IngestEnqueued != 1 || st.IngestCommits != 1 || st.IngestCoalesced != 1 {
		t.Fatalf("ingest counters = %+v, want 1/1/1", st)
	}
	// The metric families exist on the registry exposition too.
	text := s.Registry().Text()
	for _, name := range []string{
		"mfbc_ingest_queue_depth", "mfbc_ingest_coalesced_total",
		"mfbc_ingest_group_commit_size", "mfbc_ingest_queue_wait_seconds",
	} {
		if !strings.Contains(text, name) {
			t.Fatalf("metrics exposition missing %s", name)
		}
	}
}
