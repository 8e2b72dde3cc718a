// Command perfbench is the repository benchmark. It drives one workload
// through the public entry points of the real layers — pkg/oic Engine,
// Session and Fleet; internal/server and internal/cluster handlers on
// loopback TCP; internal/journal on an on-disk directory — checks every
// output it can against a library reference, and prints one JSON result
// line last:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set (endToEnd); with
// -trace 1 a separate traced run prints the per-layer ledger (perLayer).
// Every input is a pure function of (workload, seed). Any failed output
// check exits non-zero without printing a result.
//
// Run it from the repository root with perfbench/run.sh, which builds it
// from source first.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	_ "oic/internal/acc" // registers the ACC plant every workload drives
)

// opts is what a workload receives from the command line.
type opts struct {
	workload  string
	setupOnly bool // time one cold set-up, print it and exit
	seed      int64
	seconds   time.Duration
	traced    bool
	dir       string    // scratch directory for the journal and span dumps
	clients   int       // closed-loop client goroutines (≤ nproc)
	log       io.Writer // human-readable lines printed before the result
}

// outcome is a finished, checked workload run.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
}

type workload func(ctx context.Context, o opts) (*outcome, error)

var workloads = map[string]workload{
	"fleet-steady":          fleetSteady,
	"serve-sessions":        serveSessions,
	"serve-fleet-journaled": serveFleetJournaled,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-steady, serve-sessions or serve-fleet-journaled")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	dir := fs.String("out", ".bench_build", "scratch directory (journal, span dumps)")
	setupOnly := fs.Bool("setup-only", false, "time one cold set-up and print it (used by the run itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := opts{
		workload: *name, setupOnly: *setupOnly,
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		dir: *dir, clients: runtime.NumCPU(), log: stdout,
	}
	env, err := stampEnv(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !o.setupOnly {
		fmt.Fprintf(stdout, "env %s\n", env)
	}

	out, err := w(context.Background(), o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if o.setupOnly {
		fmt.Fprintf(stdout, "setup_s %v\n", out.metrics["setup_s"])
		return 0
	}
	want := endToEnd
	if o.traced {
		want = perLayer
	}
	line, err := resultLine(out, want, !o.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// metricDef is one reported metric; the lists below must match
// BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics, measured with tracing off.
// Latencies are those of the workload's unit operation: a Fleet.Tick
// call (fleet-steady), one served step (serve-sessions), one tick
// request (serve-fleet-journaled).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"steps_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"heap_kb_per_member", "KB"},
	{"skip_pct", "%"},
}

// perLayer is the traced run's ledger. A layer that is not on a
// workload's path reports 0 there.
var perLayer = []metricDef{
	{"controller.kappa_warm_us", "us"},
	{"controller.kappa_cold_us", "us"},
	{"controller.kappas_per_op", "count"},
	{"oic.skip_ns", "ns"},
	{"oic.workspace_kb", "KB"},
	{"oic.engine_build_s", "s"},
	{"oic.engine_load_s", "s"},
	{"reach.skip_budget_s", "s"},
	{"oic.admit_us", "us"},
	{"sched.tick_ms", "ms"},
	{"sched.overhead_ms", "ms"},
	{"sched.computes_per_tick", "count"},
	{"sched.forced_per_tick", "count"},
	{"sched.shed_per_tick", "count"},
	{"sched.skips_per_tick", "count"},
	{"server.step_us", "us"},
	{"server.tick_ms", "ms"},
	{"server.create_us", "us"},
	{"server.delete_us", "us"},
	{"server.admit_us", "us"},
	{"server.evict_us", "us"},
	{"cluster.overhead_us", "us"},
	{"transport.shard_hop_us", "us"},
	{"transport.bytes_per_step", "B"},
	{"transport.tick_decode_ms", "ms"},
	{"journal.append_us", "us"},
	{"journal.sync_ms", "ms"},
	{"journal.bytes_per_step", "B"},
	{"runtime.alloc_bytes_per_step", "B"},
	{"runtime.gc_pause_us_per_op", "us"},
	{"ledger.e2e_us", "us"},
	{"ledger.client_us", "us"},
	{"ledger.remainder_us", "us"},
	{"trace.overhead_pct", "%"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the final JSON line. With strict set (end-to-end
// metrics) every metric must be measured and positive; per-layer metrics
// a workload does not touch default to 0. A metric outside the declared
// set is a bug.
func resultLine(out *outcome, want []metricDef, strict bool) (string, error) {
	if out.attempted < 1 {
		return "", errors.New("no operation attempted")
	}
	declared := map[string]bool{}
	r := resultJSON{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range want {
		declared[d.name] = true
		v, ok := out.metrics[d.name]
		if strict && (!ok || !(v > 0)) {
			return "", fmt.Errorf("metric %s = %v (measured %v), want > 0", d.name, v, ok)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var extra []string
	for k := range out.metrics {
		if !declared[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return "", fmt.Errorf("undeclared metrics %v", extra)
	}
	b, err := json.Marshal(r)
	return string(b), err
}
