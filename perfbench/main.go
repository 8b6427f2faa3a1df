// Command perfbench is the repository's benchmark of record. It runs one
// workload through the public entry points of the atpg, core, analog and
// service packages for a fixed wall-clock budget, checks every output
// against an oracle that shares no code with the engine, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload atpg-iscas --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation of
// its own. --trace 1 runs the same inputs untraced and traced in turn,
// wraps spans around the calls into each layer and reports per-layer
// self time and work counts. See README.md for the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// DefaultSeed reproduces the paper's circuits: under it the first input
// variant of every workload is the one EXPERIMENTS.md reports, and the
// golden checks apply to it. README.md records the held-out seed.
const DefaultSeed = 1

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run prints, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"unit_p50_ms", "ms"},
	{"retained_heap_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run prints, on every workload; a
// layer the workload does not reach reads 0.
var perLayer = []metricSpec{
	{"bdd.build_s", "s"},
	{"bdd.nodes_alloc", "count"},
	{"bdd.peak_nodes", "count"},
	{"atpg.test_function_s", "s"},
	{"atpg.satone_s", "s"},
	{"atpg.faults_targeted", "count"},
	{"atpg.test_vectors", "count"},
	{"atpg.shard_speedup", "ratio"},
	{"faults.detect_s", "s"},
	{"faults.faults_simulated", "count"},
	{"faults.ns_per_fault", "ns"},
	{"faults.useful_ratio", "ratio"},
	{"core.propagate_s", "s"},
	{"core.propagations", "count"},
	{"analog.ed_s", "s"},
	{"analog.ed_cells", "count"},
	{"mna.measure_s", "s"},
	{"mna.solves", "count"},
	{"mna.ns_per_solve", "ns"},
	{"mna.alloc_bytes_per_solve", "B"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.journal_bytes", "B"},
	{"service.job_tail_ms", "ms"},
	{"service.job_tail_pct", "%"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cpu_pct", "%"},
	{"obs.overhead_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.attributed_pct", "%"},
	{"fail_ratio", "ratio"},
}

// env is what a workload receives: its seed, its measuring budget, a
// directory for state it must write, and a log for human-readable notes.
type env struct {
	seed   int64
	budget time.Duration
	state  string
	log    io.Writer
}

// report is what a workload returns. attempted and failed count its
// operations; mismatches are oracle failures, each also one failed
// operation. metrics holds the end-to-end or per-layer values; names
// holds the same results under the workload-specific names README.md
// maps them to, for the human-readable summary.
type report struct {
	attempted  int64
	failed     int64
	mismatches []string
	notes      []string // findings that are not failures
	metrics    map[string]float64
	names      []namedValue
}

type namedValue struct {
	name, unit string
	value      float64
}

func (r *report) named(name, unit string, v float64) {
	r.names = append(r.names, namedValue{name, unit, v})
}

func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	r.failed++
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloadFuncs maps a workload name to its untraced and traced runs.
var workloadFuncs = map[string]struct{ plain, traced func(*env) (*report, error) }{
	"atpg-iscas":   {runISCAS, traceISCAS},
	"mixed-census": {runCensus, traceCensus},
	"analog-ed":    {runAnalog, traceAnalog},
	"daemon-jobs":  {runDaemon, traceDaemon},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	workload := fset.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fset.Int64("seed", DefaultSeed, "input seed; the default reproduces the paper's circuits")
	seconds := fset.Int("seconds", 20, "measuring budget in seconds")
	trace := fset.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	state := fset.String("state", ".bench_build", "directory for daemon state")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadFuncs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	e := &env{seed: *seed, budget: time.Duration(*seconds) * time.Second, state: *state, log: stderr}
	fn, specs := w.plain, endToEnd
	if *trace == 1 {
		fn, specs = w.traced, perLayer
	}
	rep, err := fn(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	out := resultOut{
		Correct:   len(rep.mismatches) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, s := range specs {
		v, ok := rep.metrics[s.name]
		if !ok {
			if *trace == 0 {
				fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", *workload, s.name)
				return 1
			}
			v = 0 // a layer this workload does not reach
		}
		out.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stderr, "perfbench: NOTE: %s\n", n)
	}
	for _, m := range rep.mismatches {
		fmt.Fprintf(stderr, "perfbench: MISMATCH: %s\n", m)
	}
	if *trace == 0 {
		rep.named("fail_ratio", "ratio", float64(out.Failed)/float64(max(out.Attempted, 1)))
	}
	for _, nv := range rep.names {
		fmt.Fprintf(stderr, "%s: %s = %.6g %s\n", *workload, nv.name, nv.value, nv.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct || out.Attempted < 1 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadFuncs))
	for n := range workloadFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
