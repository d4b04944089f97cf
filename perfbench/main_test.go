package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// The names, units and bounds the benchmark prints are the ones
// BENCHMARK.json declares, and so are the workloads and why each was
// chosen.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	if *update {
		writeBenchmarkJSON(t)
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n json %+v\n code %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs: json has %d metrics, code %d", len(bf.PerLayer), len(perLayer))
		for i := range min(len(bf.PerLayer), len(perLayer)) {
			if bf.PerLayer[i] != perLayer[i] {
				t.Errorf("per_layer[%d]: json %+v, code %+v", i, bf.PerLayer[i], perLayer[i])
				break
			}
		}
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, code %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("json has %d workloads, code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %q %q, code %q %q", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
	}
}

// writeBenchmarkJSON regenerates BENCHMARK.json from the catalogue,
// keeping its command, paths and run length.
func writeBenchmarkJSON(t *testing.T) {
	bf := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		bf.Workloads = append(bf.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	b, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../BENCHMARK.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// report prints exactly the catalogue of the run's mode and refuses an
// end-to-end metric that was not measured or is not positive.
func TestReportSelectsCatalogue(t *testing.T) {
	out := &outcome{Attempted: 3, Metrics: map[string]float64{}}
	for _, d := range endToEnd {
		out.Metrics[d.Name] = 1
	}
	out.Metrics["bc_s"] = 2
	res, err := report(out, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("untraced run printed %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	res, err = report(out, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) || res.Metrics["bc_s"].Value != 2 {
		t.Errorf("traced run printed %d metrics (bc_s %v), want %d", len(res.Metrics), res.Metrics["bc_s"], len(perLayer))
	}
	out.Metrics[endToEnd[0].Name] = 0
	if _, err := report(out, false); err == nil {
		t.Error("a zero end-to-end metric was accepted")
	}
	delete(out.Metrics, endToEnd[0].Name)
	if _, err := report(out, false); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
}

// The same seed yields the same inputs: graph, query trace and mutation
// stream; another seed yields others.
func TestSameSeedSameInputs(t *testing.T) {
	if repro.Fingerprint(staticGraph(7)) != repro.Fingerprint(staticGraph(7)) {
		t.Error("static-seq graph differs for one seed")
	}
	if repro.Fingerprint(staticGraph(7)) == repro.Fingerprint(staticGraph(8)) {
		t.Error("static-seq graph is the same for two seeds")
	}

	a, err := genTrace(7, refRate, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genTrace(7, refRate, 2*time.Second)
	c, _ := genTrace(8, refRate, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("serve-mixed trace differs for one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("serve-mixed trace is the same for two seeds")
	}

	g := distGraph()
	var gens [3]*streamGen
	for i, seed := range []int64{7, 7, 8} {
		var err error
		if gens[i], err = newStreamGen(g, distMaxWeight, seed); err != nil {
			t.Fatal(err)
		}
	}
	s1, s2, s3 := gens[0], gens[1], gens[2]
	for range 2 {
		m1, b1, err := s1.nextBlock()
		if err != nil {
			t.Fatal(err)
		}
		m2, b2, _ := s2.nextBlock()
		m3, _, _ := s3.nextBlock()
		if !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(b1, b2) {
			t.Error("dist-stream block differs for one seed")
		}
		if reflect.DeepEqual(m1, m3) {
			t.Error("dist-stream block is the same for two seeds")
		}
	}
}

// One seed's stream block gets the same strategy for every apply on two
// fresh engines, and the bands map onto the engine's strategies: 3
// no-op, 5 fused incremental and 2 full-fallback applies per block.
func TestSameSeedSameApplyCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two p=8 engines")
	}
	var runs [2][]applyRec
	for i := range runs {
		d, err := repro.NewDynamicBC(distGraph(), distOptions())
		if err != nil {
			t.Fatal(err)
		}
		sg, err := newStreamGen(distGraph(), distMaxWeight, 7)
		if err != nil {
			t.Fatal(err)
		}
		runs[i], err = applyBlock(t.Context(), nil, d, sg, &outcome{})
		if err != nil {
			t.Fatal(err)
		}
	}
	want := map[band]string{bandZero: "noop", bandSmall: "incremental", bandLarge: "full"}
	counts := map[string]int{}
	for k, r := range runs[0] {
		cl := applyClass(r.rep)
		if other := applyClass(runs[1][k].rep); other != cl {
			t.Errorf("apply %d: %s, then %s", k, cl, other)
		}
		if cl != want[r.band] {
			t.Errorf("apply %d: %s-band mutation ran %s, want %s", k, r.band, cl, want[r.band])
		}
		if cl == "incremental" && !r.rep.Fused {
			t.Errorf("apply %d: incremental apply was not fused", k)
		}
		counts[cl]++
	}
	if counts["noop"] != 3 || counts["incremental"] != 5 || counts["full"] != 2 {
		t.Errorf("block split %v, want 3 noop, 5 incremental, 2 full", counts)
	}
}

// A span's self time is its duration less the union of its children; the
// benchmark roots' self time is unattributed, less the program traces
// that ran inside them.
func TestFoldTraces(t *testing.T) {
	traces := [][]obs.SpanRecord{
		{
			{Span: "s1", Name: "bench.bc", StartUS: 0, DurUS: 1000},
			{Span: "s2", Parent: "s1", Name: "core.mfbf", StartUS: 100, DurUS: 400},
			{Span: "s3", Parent: "s1", Name: "core.mfbr", StartUS: 300, DurUS: 400},
			{Span: "s4", Parent: "s2", Name: "sparse.mul", StartUS: 150, DurUS: 100},
			{Span: "s5", Parent: "s1", Name: "machine.region", StartUS: 900, DurUS: 300},
		},
		{{Span: "s1", Name: "bench.request", StartUS: 0, DurUS: 500}},
		{{Span: "s1", Name: "http.query", StartUS: 0, DurUS: 450}},
	}
	f := foldTraces(traces)
	want := map[string]float64{"core": 0.3 + 0.4, "sparse": 0.1, "machine": 0.3, "server": 0.45}
	for l, v := range want {
		if d := f.SelfMS[l] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s self %.3f ms, want %.3f", l, f.SelfMS[l], v)
		}
	}
	// bench.bc: 1000 − |[100,700) ∪ [900,1000)| = 300 µs; bench.request
	// 500 µs, less the 450 µs http.query inside it.
	if d := f.UnattributedMS - 0.35; d > 1e-9 || d < -1e-9 {
		t.Errorf("unattributed %.3f ms, want 0.350", f.UnattributedMS)
	}
	if f.RootMS != 1.5 {
		t.Errorf("root %.3f ms, want 1.5", f.RootMS)
	}
}
