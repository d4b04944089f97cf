package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
)

// faultEngine wraps the real dynamic engine and misbehaves on batches
// that touch a marked edge: one that reweights panicEdge announces itself
// on entered, waits for release, and panics; one that reweights failEdge
// returns an error. Every other batch applies normally.
type faultEngine struct {
	DynEngine
	panicEdge, failEdge [2]int32
	entered, release    chan struct{}
}

func touches(batch []repro.Mutation, e [2]int32) bool {
	for _, m := range batch {
		if m.U == e[0] && m.V == e[1] {
			return true
		}
	}
	return false
}

func (e *faultEngine) ApplyCtx(ctx context.Context, batch []repro.Mutation) (repro.ApplyReport, error) {
	switch {
	case touches(batch, e.panicEdge):
		close(e.entered)
		<-e.release
		panic("injected engine panic")
	case touches(batch, e.failEdge):
		return repro.ApplyReport{}, errors.New("injected engine failure")
	}
	return e.DynEngine.ApplyCtx(ctx, batch)
}

// faultServer is a server whose engines are faultEngines. builds counts
// engine constructions; a construction past the first waits for
// rebuildGate, so a test can look at the server between a panic and the
// next commit.
type faultServer struct {
	*Server
	mu          sync.Mutex
	builds      int
	rebuildGate chan struct{}
	log         syncBuffer
}

// syncBuffer is a bytes.Buffer safe for the drainer's logger to write
// while a test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func newFaultServer(panicEdge, failEdge [2]int32) *faultServer {
	fs := &faultServer{rebuildGate: make(chan struct{})}
	fs.Server = New(Config{
		Workers: 1,
		Logger:  slog.New(slog.NewTextHandler(&fs.log, nil)),
		NewDynamic: func(_ string, g *repro.Graph, opt repro.DynamicOptions) (DynEngine, error) {
			fs.mu.Lock()
			fs.builds++
			rebuild := fs.builds > 1
			fs.mu.Unlock()
			if rebuild {
				<-fs.rebuildGate
			}
			inner, err := repro.NewDynamicBC(g, opt)
			if err != nil {
				return nil, err
			}
			return &faultEngine{
				DynEngine: inner, panicEdge: panicEdge, failEdge: failEdge,
				entered: make(chan struct{}), release: make(chan struct{}),
			}, nil
		},
	})
	return fs
}

// engine returns the engine attached to the named graph, nil if none.
func (fs *faultServer) engine(name string) *faultEngine {
	fs.Server.mu.Lock()
	defer fs.Server.mu.Unlock()
	ge, ok := fs.graphs[name]
	if !ok || ge.dyn == nil {
		return nil
	}
	return ge.dyn.(*faultEngine)
}

func (fs *faultServer) buildCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.builds
}

// TestApplyPanicFailsOnlyItsGroup is the panic-injection test of the write
// path: an engine panic inside a group commit answers that group's PATCH
// with 500 and nothing else. The registered (version, scores) stays the
// pre-panic snapshot, the panicked engine is dropped, the batch queued
// behind the panic commits on an engine rebuilt from the committed graph,
// and the process keeps serving. Every wait is bounded. Run with -race.
func TestApplyPanicFailsOnlyItsGroup(t *testing.T) {
	g := repro.GridGraph(6, 6, 3, 1)
	e0, ep := g.Edges[0], g.Edges[1]
	fs := newFaultServer([2]int32{ep.U, ep.V}, [2]int32{-1, -1})
	if _, err := fs.AddGraph("g", g.Clone()); err != nil {
		t.Fatal(err)
	}
	mux := NewMux(fs.Server)
	patch := func(muts []repro.Mutation) <-chan *httptest.ResponseRecorder {
		body, err := json.Marshal(MutateRequest{Mutations: muts})
		if err != nil {
			t.Fatal(err)
		}
		out := make(chan *httptest.ResponseRecorder, 1)
		go func() {
			rw := httptest.NewRecorder()
			mux.ServeHTTP(rw, httptest.NewRequest("PATCH", "/graphs/g", bytes.NewReader(body)))
			out <- rw
		}()
		return out
	}

	// A committed first batch builds the engine: this is the pre-panic
	// snapshot.
	shadow := g.Clone()
	first := []repro.Mutation{{Op: repro.MutSetWeight, U: e0.U, V: e0.V, W: 7}}
	if rw := recv(t, "first PATCH", patch(first)); rw.Code != http.StatusOK {
		t.Fatalf("first PATCH = %d: %s", rw.Code, rw.Body.String())
	}
	if _, err := shadow.ApplyAll(first); err != nil {
		t.Fatal(err)
	}
	before, err := fs.GraphInfoFor("g")
	if err != nil {
		t.Fatal(err)
	}
	eng := fs.engine("g")
	if eng == nil {
		t.Fatal("no engine after the first commit")
	}

	// The marked batch parks inside the engine; batch B queues behind it.
	marked := patch([]repro.Mutation{{Op: repro.MutSetWeight, U: ep.U, V: ep.V, W: 9}})
	recv(t, "marked batch inside the engine", eng.entered)
	b := []repro.Mutation{{Op: repro.MutAddEdge, U: 0, V: int32(g.N - 1), W: 2}}
	resB := patch(b)
	waitFor(t, "batch B queued behind the panic", func() bool { return fs.Stats().IngestDepth == 1 })
	close(eng.release)

	rw := recv(t, "marked PATCH", marked)
	if rw.Code != http.StatusInternalServerError || !strings.Contains(rw.Body.String(), "panicked") {
		t.Fatalf("marked PATCH = %d %s, want 500 naming the panic", rw.Code, rw.Body.String())
	}
	// B is now held in the engine rebuild: the registry still serves the
	// pre-panic snapshot, with the panicked engine detached.
	after, err := fs.GraphInfoFor("g")
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != before.Version || after.M != before.M {
		t.Fatalf("after the panic: version %x m %d, want the pre-panic %x m %d",
			after.Version, after.M, before.Version, before.M)
	}
	if fs.engine("g") != nil {
		t.Fatal("the panicked engine is still attached")
	}
	q, err := fs.Query(QueryRequest{Graph: "g", IncludeScores: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := repro.Compute(shadow, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if q.Version != before.Version || !scoresAlmostEqual(q.Scores, want.BC) {
		t.Fatal("query after the panic does not serve the pre-panic snapshot")
	}
	if log := fs.log.String(); !strings.Contains(log, "mutation apply panicked") || !strings.Contains(log, "goroutine") {
		t.Fatalf("panic not logged with its stack:\n%s", log)
	}

	// Release the rebuild: B commits on a fresh engine built from the
	// committed graph, and the scores match a from-scratch compute.
	close(fs.rebuildGate)
	if rw := recv(t, "batch B", resB); rw.Code != http.StatusOK {
		t.Fatalf("batch B = %d %s, want 200", rw.Code, rw.Body.String())
	}
	if _, err := shadow.ApplyAll(b); err != nil {
		t.Fatal(err)
	}
	q, err = fs.Query(QueryRequest{Graph: "g", IncludeScores: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err = repro.Compute(shadow, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if q.Version != repro.Fingerprint(shadow) || !scoresAlmostEqual(q.Scores, want.BC) {
		t.Fatal("batch B's commit diverges from replaying the committed batches")
	}
	st := fs.Stats()
	if st.Mutations != 2 || st.IngestBatchErrors != 1 {
		t.Fatalf("mutations/batch errors = %d/%d, want 2/1", st.Mutations, st.IngestBatchErrors)
	}
	if n := fs.buildCount(); n != 2 {
		t.Fatalf("engine built %d times, want 2 (the first, and the rebuild after the panic)", n)
	}
}
