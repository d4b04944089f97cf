// Mutation ingestion: every PATCH batch goes through a per-graph
// write-ahead queue and lands in a group commit.
//
// MutateDurable admits the batch into the graph's queue. The Enqueue that
// finds no drainer active elects one (a short-lived goroutine); the
// drainer takes the per-graph mutation serializer FIRST and only then
// drains, so every batch that arrives while a commit holds the lock piles
// up and rides the next group. An uncontended batch is a group of one.
// One group commit validates each batch in arrival order, coalesces the
// valid ones via the MutationLog.Compact algebra into one merged batch,
// and runs that through the graph's dynamic engine — N queued writers pay
// ~one probe + one machine region instead of N.
//
// A panic in the engine fails only its own group, with ErrApplyPanic: the
// committed (version, scores) stays registered, the engine is dropped so
// the next batch rebuilds it from the committed graph, and the drainer
// carries on with the batches queued behind.
//
// Readers never see the queue: queries serve the last committed
// (version, scores) snapshot.
package server

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"repro"
	"repro/internal/dynamic"
	"repro/internal/obs"
)

// Durability levels for mutations (MutateRequest.Durability,
// Config.IngestDurability).
const (
	// DurabilityApplied acknowledges after the batch's group commit
	// lands: the caller observes the committed version. The default.
	DurabilityApplied = "applied"
	// DurabilityEnqueued acknowledges as soon as the batch is queued:
	// the result carries Queued=true, the current queue depth, and the
	// pre-commit version. Lowest latency, no apply guarantee on return.
	DurabilityEnqueued = "enqueued"
)

const defaultIngestMaxDepth = 256

type (
	ingestQueue   = dynamic.Queue[*MutateResult]
	ingestPending = dynamic.Pending[*MutateResult]
)

// MutateDurable is MutateCtx with an explicit acknowledgment level
// (empty = the server default).
func (s *Server) MutateDurable(ctx context.Context, name string, muts []repro.Mutation, durability string) (*MutateResult, error) {
	if len(muts) == 0 {
		return nil, fmt.Errorf("server: empty mutation batch")
	}
	switch durability {
	case "":
		durability = s.durability
	case DurabilityApplied, DurabilityEnqueued:
	default:
		return nil, fmt.Errorf("server: unknown durability %q (want %q or %q)",
			durability, DurabilityApplied, DurabilityEnqueued)
	}
	if durability == DurabilityEnqueued {
		_, ack, err := s.enqueue(ctx, nil, name, muts, durability)
		return ack, err
	}
	// The caller waits for its commit inside ingest.wait, and the commit
	// hangs its spans under that span (commitSpan), so the wait's own time
	// is the queueing alone.
	waitCtx, span := obs.StartSpan(ctx, "ingest.wait")
	defer span.End()
	p, _, err := s.enqueue(waitCtx, waitCtx, name, muts, durability)
	if err != nil {
		return nil, err
	}
	return p.Wait(ctx) // ctx cancellation abandons the wait; the batch still commits
}

// enqueue admits one batch into the graph's write-ahead queue, recording
// waitCtx on it: the context of the caller that waits for the commit, nil
// when none does. An enqueued-durability batch gets its acknowledgment
// back; an applied-durability one gets the pending batch to wait on.
func (s *Server) enqueue(ctx, waitCtx context.Context, name string, muts []repro.Mutation, durability string) (*ingestPending, *MutateResult, error) {
	_, span := obs.StartSpan(ctx, "ingest.enqueue")
	defer span.End()
	span.SetAttr("graph", name).SetAttr("mutations", len(muts)).SetAttr("durability", durability)

	s.mu.Lock()
	ge, ok := s.graphs[name]
	if !ok {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	}
	q, ok := s.queues[name]
	if !ok {
		q = dynamic.NewQueue[*MutateResult](s.queueMaxDepth)
		s.queues[name] = q
	}
	s.mu.Unlock()

	p, depth, startDrain, err := q.Enqueue(waitCtx, muts, time.Now())
	switch err {
	case nil:
	case dynamic.ErrQueueFull:
		s.m.ingestRejected.Inc()
		span.SetAttr("rejected", true)
		return nil, nil, fmt.Errorf("%w: %q at depth %d", ErrIngestBackpressure, name, depth)
	case dynamic.ErrQueueClosed:
		// Evicted between the registry lookup and the enqueue; same
		// outcome as losing the lookup race outright.
		return nil, nil, fmt.Errorf("%w: %q", ErrGraphNotFound, name)
	default:
		return nil, nil, err
	}
	s.m.ingestEnqueued.Inc()
	s.m.ingestDepth.Add(1)
	span.SetAttr("depth", depth)
	if startDrain {
		go s.drainLoop(name, q)
	}

	if durability == DurabilityEnqueued {
		return nil, &MutateResult{
			Graph:      name,
			OldVersion: ge.version,
			Version:    ge.version, // pre-commit: the batch has not applied yet
			Queued:     true,
			QueueDepth: depth,
			N:          ge.g.N,
			M:          ge.g.M(),
		}, nil
	}
	return p, nil, nil
}

// drainLoop is the graph's elected drainer: repeatedly take the per-graph
// mutation serializer, drain whatever accumulated while waiting for it,
// and group-commit the backlog. Exits (releasing drain duty) when a drain
// finds the queue empty or closed; the next Enqueue elects a fresh
// drainer. Taking the serializer before draining is what makes groups
// form: every batch that arrives during a commit joins the next group.
func (s *Server) drainLoop(name string, q *ingestQueue) {
	for {
		lk := s.mutLockFor(name)
		lk.Lock()
		group, ok := q.Drain()
		if !ok {
			lk.Unlock()
			return
		}
		s.m.ingestDepth.Add(-float64(len(group)))
		s.commitGroup(name, q, group)
		lk.Unlock()
	}
}

// commitGroup applies one backlog drained from q as a single group
// commit. The caller holds the per-graph mutation serializer. Every
// pending batch is resolved exactly once: invalid batches individually
// (sequential-apply error semantics — one bad batch never poisons the
// group), valid ones with a copy of the shared commit result carrying the
// batch's own Seq.
func (s *Server) commitGroup(name string, q *ingestQueue, group []*ingestPending) {
	commitStart := time.Now()

	// Evict does not take the serializer, so an Evict — and a
	// re-registration under the same name — can land between Drain and
	// this lookup. The batches belong to the graph that owned q, and q
	// left the registry with it.
	s.mu.Lock()
	ge, ok := s.graphs[name]
	ok = ok && s.queues[name] == q
	var lastSeq uint64
	if ok {
		lastSeq = ge.seq
	}
	s.mu.Unlock()
	if !ok {
		s.failGroup(group, fmt.Errorf("%w: %q", ErrGraphNotFound, name))
		return
	}

	// Validate each batch in arrival order against a shadow graph that
	// accumulates the batches admitted so far, preserving one-at-a-time
	// apply semantics: a batch that would have been rejected sequentially
	// (double add, missing remove) is rejected here with its own error,
	// and later batches validate against the state it would have left.
	shadow := ge.g // only cloned from; Clone never writes its source
	valid := group[:0]
	var raw int
	for _, p := range group {
		next := shadow.Clone()
		if _, err := next.ApplyAll(p.Muts); err != nil {
			s.m.ingestBatchErrors.Inc()
			p.Resolve(nil, err)
			continue
		}
		shadow = next
		valid = append(valid, p)
		raw += len(p.Muts)
	}
	if len(valid) == 0 {
		return
	}

	merged := make([]repro.Mutation, 0, raw)
	for _, p := range valid {
		merged = append(merged, p.Muts...)
	}
	coalesced := repro.CoalesceMutations(ge.g.Directed, merged)
	s.m.ingestCoalesced.Add(float64(len(valid)))
	s.m.ingestCommits.Inc()
	s.m.ingestGroupSize.Observe(float64(len(valid)))

	ctx, span := s.commitSpan(valid)
	span.SetAttr("graph", name).SetAttr("batches", len(group)).
		SetAttr("raw_ops", raw).SetAttr("coalesced_ops", len(coalesced))
	var res *MutateResult
	var err error
	if len(coalesced) == 0 {
		// The group cancelled itself out (adds matched by removes; only a
		// truly empty compaction lands here). Nothing to apply; the
		// committed state already equals the group's outcome.
		s.mu.Lock()
		ge.seq += uint64(len(valid))
		s.mu.Unlock()
		res = &MutateResult{
			Graph: name, OldVersion: ge.version, Version: ge.version,
			Strategy: "noop", N: ge.g.N, M: ge.g.M(),
		}
	} else {
		res, err = s.applyCommitted(ctx, name, ge, coalesced, len(valid), commitStart)
	}
	// End the commit's spans before any waiter wakes: they may hang in a
	// waiter's trace, which its request seals when it ends.
	span.End()
	if err != nil {
		// Engine failure, engine panic, or an install lost to eviction
		// (ErrGraphConflict) fails the whole group: none of its batches
		// took effect.
		s.failGroup(valid, err)
		return
	}
	for i, p := range valid {
		wait := commitStart.Sub(p.EnqueuedAt)
		s.m.ingestQueueWait.Observe(wait.Seconds())
		r := *res
		r.Seq = lastSeq + uint64(i) + 1
		r.CoalescedBatches = len(valid)
		r.QueueWaitMS = float64(wait.Microseconds()) / 1e3
		p.Resolve(&r, nil)
	}
}

// commitSpan opens a group commit's span. It hangs under the wait span of
// the group's first applied-durability batch, so an uncontended PATCH
// traces down through the apply into the machine regions, and an
// untraced caller gets no trace, as with any other call. A group that
// nobody waits on opens its own root. The commit takes only the waiter's
// values: a caller that stops waiting does not cancel it.
func (s *Server) commitSpan(group []*ingestPending) (context.Context, *obs.Span) {
	for _, p := range group {
		if p.Ctx != nil {
			return obs.StartSpan(context.WithoutCancel(p.Ctx), "ingest.commit")
		}
	}
	return s.tracer.Start(context.Background(), "ingest.commit")
}

// runEngine applies muts through ge's dynamic engine, constructing it on
// first use, and returns the engine with the apply's report and snapshot.
// A panic in construction or in the apply is contained here: it becomes
// ErrApplyPanic, logged with its stack, and the engine — whose state the
// panic may have left half-written — is detached from ge, so the next
// batch rebuilds it from the committed graph. The caller installs nothing
// on error, so the registered (version, scores) stays as it was.
func (s *Server) runEngine(ctx context.Context, name string, ge *graphEntry, muts []repro.Mutation) (dyn DynEngine, rep repro.ApplyReport, snap repro.DynamicSnapshot, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.logger.Error("mutation apply panicked", "graph", name, "panic", r, "stack", string(debug.Stack()))
		s.mu.Lock()
		ge.dyn = nil
		s.mu.Unlock()
		err = fmt.Errorf("%w: %q: %v", ErrApplyPanic, name, r)
	}()

	s.mu.Lock()
	dyn = ge.dyn
	s.mu.Unlock()
	if dyn == nil {
		dyn, err = s.newDynamic(name, ge.g, repro.DynamicOptions{
			Workers: s.workers, DirtyThreshold: s.dirty,
			Procs: s.dynProcs, CacheSets: s.dynCacheSets,
			SampleBudget: s.dynSampleBudget, RefreshEvery: s.dynRefreshEvery,
			LogCompactAt: s.logCompactAt, LogTruncate: s.logTruncate,
		})
		if err != nil {
			return nil, rep, snap, err
		}
		// Attach the engine (and its expensive initial exact compute) to the
		// live entry right away, so a failing batch below doesn't force the
		// next PATCH to redo the base computation.
		s.mu.Lock()
		if s.graphs[name] == ge {
			ge.dyn = dyn
		}
		s.mu.Unlock()
	}
	if rep, err = dyn.ApplyCtx(ctx, muts); err != nil {
		return nil, rep, snap, err
	}
	return dyn, rep, dyn.Scores(), nil
}

// failGroup resolves batches that will never commit with err.
func (s *Server) failGroup(group []*ingestPending, err error) {
	for _, p := range group {
		s.m.ingestBatchErrors.Inc()
		p.Resolve(nil, err)
	}
}

// failOrphans resolves batches stranded by an eviction with
// ErrGraphNotFound, keeping the depth gauge and error counter honest.
func (s *Server) failOrphans(name string, orphans []*ingestPending) {
	if len(orphans) == 0 {
		return
	}
	s.m.ingestDepth.Add(-float64(len(orphans)))
	s.failGroup(orphans, fmt.Errorf("%w: %q", ErrGraphNotFound, name))
}
