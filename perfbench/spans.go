package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
)

// The traced pass records one root span per benchmark operation (named
// bench.<op>) and a child span around each call it makes into a layer.
// The program's own spans (dynamic.apply, machine.region, http.query, …)
// attach beneath the root through the context the benchmark passes in,
// or, for HTTP requests, land in the same tracer through server
// Config.Tracer.

// newTracer returns a tracer that keeps every trace of a traced pass.
func newTracer() *obs.Tracer { return obs.NewTracer(1 << 20) }

// within runs f inside a child span of the span ctx carries; without a
// traced context it just runs f.
func within(ctx context.Context, name string, f func()) {
	_, sp := obs.StartSpan(ctx, name)
	f()
	sp.End()
}

// layerOf maps a span name to the layer its self time belongs to; "" is
// the benchmark's own (unattributed) time.
func layerOf(name string) string {
	prefix, _, _ := strings.Cut(name, ".")
	switch prefix {
	case "http", "ingest":
		return "server"
	case "sweep":
		return "core"
	case "phase":
		return "machine"
	case "bench":
		return ""
	}
	return prefix
}

// traceFold is the per-layer breakdown of a traced pass.
type traceFold struct {
	SelfMS         map[string]float64 // layer → summed self time
	RootMS         float64            // summed duration of the benchmark's root spans
	UnattributedMS float64            // root time no layer span covers
}

// foldTraces folds span self time per layer. A span's self time is its
// duration minus the part of it its children cover. Program traces that
// start their own root (the server's http.* spans) run synchronously
// inside one benchmark root each, so their total duration is taken off
// the benchmark roots' self time rather than counted as unattributed.
func foldTraces(traces [][]obs.SpanRecord) traceFold {
	f := traceFold{SelfMS: map[string]float64{}}
	benchSelf, nested := 0.0, 0.0
	for _, recs := range traces {
		children := map[string][]obs.SpanRecord{}
		for _, r := range recs {
			if r.Parent != "" {
				children[r.Parent] = append(children[r.Parent], r)
			}
		}
		for _, r := range recs {
			self := float64(r.DurUS-covered(r, children[r.Span])) / 1e3
			layer := layerOf(r.Name)
			switch {
			case layer == "":
				benchSelf += self
				if r.Parent == "" {
					f.RootMS += float64(r.DurUS) / 1e3
				}
			default:
				f.SelfMS[layer] += self
				if r.Parent == "" {
					nested += float64(r.DurUS) / 1e3
				}
			}
		}
	}
	f.UnattributedMS = max(0, benchSelf-nested)
	return f
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's, in microseconds.
func covered(parent obs.SpanRecord, kids []obs.SpanRecord) int64 {
	lo, hi := parent.StartUS, parent.StartUS+parent.DurUS
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(lo, k.StartUS), min(hi, k.StartUS+k.DurUS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// traceMetrics adds the fold to m: each layer's self time and the share
// of root time no layer span covers.
func traceMetrics(m map[string]float64, f traceFold) {
	for _, l := range traceLayers {
		m["trace."+l+".self_ms"] = f.SelfMS[l]
	}
	m["trace.unattributed_frac"] = frac(f.UnattributedMS, f.RootMS)
}

// writeTraces writes the tracer's spans as JSONL to
// <dir>/<workload>-seed<seed>.jsonl.
func writeTraces(tr *obs.Tracer, dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := tr.WriteJSONL(w); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}
