// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON benchmark record on stdout, so CI can publish the
// repository's perf trajectory (BENCH_N.json artifacts) without external
// tooling:
//
//	go test -run '^$' -bench RMPCStep -benchmem . | go run ./cmd/benchjson
//
// Every value/unit pair on a benchmark line is captured, so b.ReportMetric
// custom units (e.g. "bb-fuel-saving-%") survive alongside ns/op, B/op,
// and allocs/op.
//
// With -gate it instead checks an emitted record against the CI ratio
// gates (the gates table below) and exits nonzero if any gate fails or
// names a benchmark the record lacks:
//
//	go run ./cmd/benchjson -gate BENCH_10.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"` // unit → value (ns/op, B/op, allocs/op, custom)
}

// Report is the emitted JSON document.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Package    string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	gateFile := flag.String("gate", "", "check the ratio gates against this `record` (a benchjson JSON file) instead of converting stdin")
	flag.Parse()
	if *gateFile != "" {
		raw, err := os.ReadFile(*gateFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		var rep Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *gateFile, err)
			os.Exit(1)
		}
		if !checkGates(os.Stdout, rep, gates) {
			os.Exit(1)
		}
		return
	}
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` text output into a Report.
func parse(r io.Reader) (Report, error) {
	rep := Report{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Package = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	return rep, sc.Err()
}

// gate bounds one benchmark's ns/op by a multiple of a baseline's. Both
// run in the same job on the same runner, so the ratio cancels machine
// speed.
type gate struct {
	what       string
	base, cand string
	bound      float64
}

// gates is the CI perf gate table. A bound is never retuned to make a
// run pass; a shape problem is fixed in the benchmark.
var gates = []gate{
	// The observability tax: a facade step plus exactly the histogram
	// Observe oicd performs per step (zero-alloc atomics).
	{"instrumentation overhead", "BenchmarkSessionStep", "BenchmarkSessionStepInstrumented", 1.05},
	// The durability tax: one TypeFleetStep append per member step plus
	// one fsync per tick (oicd's sync=tick production policy).
	{"journaling overhead", "BenchmarkFleetTick", "BenchmarkFleetTickJournaled", 1.15},
	// The regulation tax: one Controller.Update plus the admission
	// recompute per tick. Elastic often measures faster (it sheds
	// optional computes on overrun), so this catches accidental per-tick
	// work, not the controller's steady-state cost.
	{"elastic-controller overhead", "BenchmarkFleetTick", "BenchmarkFleetTickElastic", 1.05},
	// The sharding tax: a step through oicd-router batched 64/request
	// against a direct step on oicd's handler. The unamortized hop stays
	// visible as BenchmarkRouterStepSingle (wire latency, not code).
	{"router proxy overhead", "BenchmarkServerStep", "BenchmarkRouterStep", 1.25},
}

// checkGates reports every gate to w and returns whether all passed. A
// benchmark missing from rep, or without a positive ns/op, fails its
// gate. When a name repeats, the last record wins.
func checkGates(w io.Writer, rep Report, gates []gate) bool {
	ns := map[string]float64{}
	for _, b := range rep.Benchmarks {
		ns[b.Name] = b.Metrics["ns/op"]
	}
	ok := true
	for _, g := range gates {
		base, cand := ns[g.base], ns[g.cand]
		if base <= 0 || cand <= 0 {
			fmt.Fprintf(w, "FAIL %s: record is missing %s and/or %s\n", g.what, g.base, g.cand)
			ok = false
			continue
		}
		ratio := cand / base
		verdict := "ok  "
		if ratio > g.bound {
			verdict, ok = "FAIL", false
		}
		fmt.Fprintf(w, "%s %s: %s %.0f ns/op, %s %.0f ns/op, ratio %.3f (bound %.2fx)\n",
			verdict, g.what, g.base, base, g.cand, cand, ratio, g.bound)
	}
	return ok
}

// parseBenchLine parses "BenchmarkName-8  1234  567 ns/op  8 B/op ..." into
// a Benchmark. Value/unit pairs follow the iteration count.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
