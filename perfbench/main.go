// Command perfbench is the repository's layered benchmark. One run
// measures one named workload for a fixed wall-clock budget, checks every
// output against an independent oracle, and prints its metrics as the last
// line of standard output:
//
//	{"correct":true,"attempted":15,"failed":0,"metrics":{"op_cpu_ms":{"value":1953.2,"unit":"ms"},...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also makes a traced pass and prints the per-layer metrics instead. A
// wrong output prints correct=false with no metrics and exits 1. The
// metric catalogue below is the single source of the names and units that
// BENCHMARK.json lists (main_test.go holds the two in step).
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one catalogue entry. Bound is the share of the parent's
// median by which an end-to-end metric may worsen (zero for per-layer
// metrics, which have none).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports with tracing off. They
// are defined per workload operation so that each is measured, and never
// zero, on every workload: op_cpu_ms is the mean CPU time of one exact BC
// on static-seq, the median of one single-mutation apply on dist-stream
// (always a fused incremental apply, see runDistStream) and the mean of
// one HTTP request on serve-mixed.
//
// Both times are CPU time of the process, summed over its threads. On the
// shared two-CPU hosts this benchmark runs on, the hypervisor steals a
// varying share of the CPUs: over five seeds the wall time of one BC
// spread by 26% and of one apply by 43% (quartile distance over median),
// more than the largest bound allowed, while over ten seeds the CPU time
// per operation, which excludes stolen time, spread by 8–10%. Wall
// latencies are reported per layer instead (op_p50_ms, setup_wall_s,
// bc_s, query_p99_ms, …).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.15},
	{"op_cpu_ms", "ms", "lower", 0.25},
}

// phaseNames are the canonical machine-region phases (machine/phases.go).
var phaseNames = []string{"stage", "diff", "patch", "probe", "sweep", "reduce"}

// traceLayers are the layers the traced run folds span self time into.
var traceLayers = []string{"graph", "sparse", "core", "baseline", "spgemm", "machine", "dynamic", "server"}

// perLayer are the metrics a traced run (-trace 1) reports. A metric of a
// layer the workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		// Workload-level figures that only some workloads have.
		lo("failed_frac", "ratio"),
		lo("setup_wall_s", "s"),
		lo("op_p50_ms", "ms"),
		hi("ops_per_s", "1/s"),
		lo("bc_s", "s"),
		lo("model_s", "s"),
		lo("comm_bytes", "B"),
		lo("comm_msgs", "count"),
		hi("apply_per_s", "1/s"),
		lo("apply_p50_ms", "ms"),
		lo("query_p50_ms", "ms"),
		lo("query_p99_ms", "ms"),
		lo("mutate_p50_ms", "ms"),
		lo("mutate_p99_ms", "ms"),
		hi("max_rps_at_slo", "1/s"),

		lo("graph.generate_ms", "ms"),
		lo("graph.adjacency_ms", "ms"),

		lo("sparse.transpose_ms", "ms"),
		lo("sparse.mul_ms", "ms"),
		lo("sparse.mul_ops", "count"),
		hi("sparse.mul_mops_s", "Mop/s"),

		lo("core.mfbf_ms", "ms"),
		lo("core.mfbf_ops", "count"),
		lo("core.mfbf_iters", "count"),
		lo("core.mfbr_ms", "ms"),
		lo("core.mfbr_ops", "count"),
		lo("core.mfbr_iters", "count"),
		lo("core.bytes_computed", "B"),

		lo("baseline.brandes_ms", "ms"),
		lo("baseline.mfbc_over_brandes", "ratio"),

		lo("spgemm.search_ms", "ms"),
		lo("spgemm.estimate_s", "s"),
		lo("spgemm.estimate_over_model", "ratio"),

		lo("machine.region_wall_s", "s"),
		lo("machine.wall_over_model", "ratio"),
		lo("machine.flops", "count"),
		lo("machine.imbalance", "ratio"),
	}
	for _, p := range phaseNames {
		defs = append(defs,
			lo("machine."+p+".wall_ms", "ms"),
			lo("machine."+p+".model_ms", "ms"),
			lo("machine."+p+".bytes", "B"),
			lo("machine."+p+".msgs", "count"))
	}
	defs = append(defs,
		lo("dynamic.noop_ms", "ms"),
		lo("dynamic.incremental_ms", "ms"),
		lo("dynamic.full_ms", "ms"),
		lo("dynamic.full_cpu_frac", "ratio"),
		hi("dynamic.incremental_frac", "ratio"),
		hi("dynamic.fused_frac", "ratio"),
		lo("dynamic.affected_frac", "ratio"),
		lo("dynamic.apply_model_ms", "ms"),
		lo("dynamic.apply_bytes", "B"),

		hi("server.cache_hit_frac", "ratio"),
		hi("server.coalesced_frac", "ratio"),
		lo("server.computes", "count"),
		hi("server.warm_seeds", "count"),
		lo("server.evictions", "count"),
		lo("server.query_compute_ms", "ms"),
		lo("server.hit_overhead_ms", "ms"),
		lo("server.mutate_compute_p50_ms", "ms"),
		lo("server.mutate_compute_p99_ms", "ms"),
		lo("server.mutate_wait_p50_ms", "ms"),
		lo("server.mutate_wait_p99_ms", "ms"),
		lo("server.full_fallback_frac", "ratio"),

		lo("load.dispatch_lag_p99_ms", "ms"),
	)
	for _, c := range append([]string{""}, serveCohortNames()...) {
		p := "load."
		if c != "" {
			p += c + "."
		}
		defs = append(defs, hi(p+"sent", "count"), hi(p+"ok", "count"), lo(p+"failed", "count"))
	}
	defs = append(defs,

		lo("trace.overhead_frac", "ratio"),
		lo("trace.unattributed_frac", "ratio"),
	)
	for _, l := range traceLayers {
		defs = append(defs, lo("trace."+l+".self_ms", "ms"))
	}
	return defs
}

// workload is one named input set and the function that measures it.
type workload struct {
	Name string
	Why  string
	Run  func(c runConfig) (*outcome, error)
}

// workloads lists the benchmark's workloads in BENCHMARK.json order. Each
// stresses a different layer: see the Why of each.
var workloads = []workload{
	{"static-seq", staticSeqWhy, runStaticSeq},
	{"dist-stream", distStreamWhy, runDistStream},
	{"serve-mixed", serveMixedWhy, runServeMixed},
}

// runSeconds is the run length BENCHMARK.json asks for: long enough for
// 15 BCs on static-seq and about 3000 requests on serve-mixed.
const runSeconds = 30

// runConfig is one invocation's settings.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// TraceDir receives the traced pass's span JSONL.
	TraceDir string
}

// outcome is what a workload run measured. Metrics holds every
// end-to-end metric, plus the per-layer ones when the run was traced.
type outcome struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
}

// errWrong marks a failed correctness gate: the run prints correct=false
// and no metrics.
var errWrong = errors.New("wrong output")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report selects the catalogue the run prints. Every end-to-end metric
// must have been measured; a per-layer metric the workload did not
// exercise reads 0.
func report(out *outcome, traced bool) (result, error) {
	res := result{Correct: true, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := out.Metrics[d.Name]
		if !ok && !traced {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		if !traced && v <= 0 {
			return res, fmt.Errorf("end-to-end metric %s is %v, want > 0", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run: static-seq | dist-stream | serve-mixed")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", runSeconds, "measured wall-clock budget of the run")
	trace := flag.Int("trace", 0, "1 = add a traced pass and print the per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory for the traced pass's span JSONL")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	// One process, at most two scheduler threads: the load, the kernels
	// and the simulated ranks share them.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	out, err := w.Run(runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, TraceDir: *traceDir})
	if errors.Is(err, errWrong) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		res := result{Correct: false, Attempted: 1, Metrics: map[string]metricValue{}}
		if out != nil && out.Attempted > 0 {
			res.Attempted, res.Failed = out.Attempted, out.Failed
		}
		printJSON(res)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	res, err := report(out, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	printSummary(w.Name, res)
	printJSON(res)
}

// printSummary writes one human-readable line per metric ahead of the
// JSON result line.
func printSummary(name string, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: attempted %d, failed %d\n", name, res.Attempted, res.Failed)
	for _, k := range keys {
		fmt.Fprintf(&b, "%-32s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Print(b.String())
}

func printJSON(res result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
