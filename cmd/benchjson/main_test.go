package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: oic/internal/journal
cpu: Test CPU @ 2.00GHz
BenchmarkJournalEncode-8   	 5000000	       230.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkFleetTick-2   	      20	  51000000 ns/op	   12.5 pivots/solve
BenchmarkBroken-8   	 notanumber ns/op
PASS
ok  	oic/internal/journal	3.1s
`
	rep, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.Package != "oic/internal/journal" || rep.CPU != "Test CPU @ 2.00GHz" {
		t.Errorf("header fields %+v", rep)
	}
	want := []Benchmark{
		{Name: "BenchmarkJournalEncode", Iterations: 5000000,
			Metrics: map[string]float64{"ns/op": 230.5, "B/op": 0, "allocs/op": 0}},
		{Name: "BenchmarkFleetTick", Iterations: 20,
			Metrics: map[string]float64{"ns/op": 51000000, "pivots/solve": 12.5}},
	}
	if !reflect.DeepEqual(rep.Benchmarks, want) {
		t.Errorf("benchmarks %+v, want %+v", rep.Benchmarks, want)
	}
}

func report(ns map[string]float64) Report {
	rep := Report{}
	for name, v := range ns {
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{Name: name, Metrics: map[string]float64{"ns/op": v}})
	}
	return rep
}

var testGates = []gate{{"journaling overhead", "BenchmarkFleetTick", "BenchmarkFleetTickJournaled", 1.15}}

func TestGatePasses(t *testing.T) {
	var w bytes.Buffer
	rep := report(map[string]float64{"BenchmarkFleetTick": 1000, "BenchmarkFleetTickJournaled": 1150})
	if !checkGates(&w, rep, testGates) {
		t.Fatalf("gate at its bound failed:\n%s", w.String())
	}
	if !strings.Contains(w.String(), "ratio 1.150") {
		t.Errorf("report lacks the ratio:\n%s", w.String())
	}
}

func TestGateOverBoundFails(t *testing.T) {
	var w bytes.Buffer
	rep := report(map[string]float64{"BenchmarkFleetTick": 1000, "BenchmarkFleetTickJournaled": 1151})
	if checkGates(&w, rep, testGates) {
		t.Fatalf("gate over its bound passed:\n%s", w.String())
	}
	if !strings.HasPrefix(w.String(), "FAIL journaling overhead") {
		t.Errorf("report does not name the failed gate:\n%s", w.String())
	}
}

func TestGateMissingBenchmarkFails(t *testing.T) {
	var w bytes.Buffer
	rep := report(map[string]float64{"BenchmarkFleetTick": 1000})
	if checkGates(&w, rep, testGates) {
		t.Fatalf("gate with a missing benchmark passed:\n%s", w.String())
	}
	if !strings.Contains(w.String(), "missing") {
		t.Errorf("report does not say what is missing:\n%s", w.String())
	}
}

// The CI table keeps its four gates and their bounds.
func TestGateTable(t *testing.T) {
	want := map[string]float64{
		"BenchmarkSessionStepInstrumented": 1.05,
		"BenchmarkFleetTickJournaled":      1.15,
		"BenchmarkFleetTickElastic":        1.05,
		"BenchmarkRouterStep":              1.25,
	}
	got := map[string]float64{}
	for _, g := range gates {
		got[g.cand] = g.bound
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gate bounds %v, want %v", got, want)
	}
}
