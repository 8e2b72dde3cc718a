package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"oic/internal/obs"
	"oic/pkg/oic"
)

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	e, err := oic.NewEngine(oic.Config{Plant: "acc", Policy: oic.PolicyBangBang})
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64, stream uint64) []episode {
		c, err := drawCases(e, seed, stream, 0, 8, 40)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := draw(7, streamFleetSteady), draw(7, streamFleetSteady)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different inputs")
	}
	if reflect.DeepEqual(a, draw(8, streamFleetSteady)) {
		t.Fatal("a different seed drew the same inputs")
	}
	if reflect.DeepEqual(a, draw(7, streamServeSessions)) {
		t.Fatal("two workloads drew the same inputs from one seed")
	}
	// Cases drawn later continue the same sequence.
	tail, err := drawCases(e, 7, streamFleetSteady, 4, 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a[4:], tail) {
		t.Fatal("case i depends on how many cases were drawn before it")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p99, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", p99)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond it) was accepted")
	}
	if _, err := percentile(xs[:19], 0.50); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond it) was accepted")
	}
	if p50, err := percentile(xs[:20], 0.50); err != nil || p50 != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", p50, err)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	for name := range workloads {
		if !nameRE.MatchString(name) {
			t.Errorf("workload name %q does not match %s", name, nameRE)
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestScrapeReadsHistogramSumAndCount(t *testing.T) {
	h := obs.NewHistogram("oicd_step_seconds", "step latency", obs.LatencyBuckets())
	var buf bytes.Buffer
	h.Write(&buf)
	before, err := parseScrape(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.002)
	h.Observe(0.004)
	buf.Reset()
	h.Write(&buf)
	obs.WriteRuntimeMetrics(&buf)
	after, err := parseScrape(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	mean, n := after.histMean(before, "oicd_step_seconds")
	if n != 2 || mean < 0.00299 || mean > 0.00301 {
		t.Fatalf("mean %v over %v observations, want 0.003 over 2", mean, n)
	}
	if _, ok := after["go_goroutines"]; !ok {
		t.Fatal("unlabeled gauge go_goroutines not read")
	}
}

func TestSelfTimes(t *testing.T) {
	epoch := time.Now()
	at := func(us int) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }
	l := newSpanLog(epoch, 4)
	root := l.open("client.step", "t1", -1, at(0))
	enc := l.open("client.encode", "t1", root, at(0))
	l.close(enc, at(2))
	h := l.open("http.step", "t1", root, at(3))
	l.close(h, at(9))
	l.close(root, at(10))
	st := selfTimes([]*spanLog{l})
	if got := st["client.step"].meanOwnUs(); got != 2 {
		t.Fatalf("root self time %v µs, want 2", got)
	}
	if got := st["http.step"].meanUs(); got != 6 {
		t.Fatalf("http span %v µs, want 6", got)
	}
	led := &ledger{op: "step", ops: 1, e2eUs: st["client.step"].meanUs()}
	led.add("client", st["client.encode"].meanUs())
	led.add("http", st["http.step"].meanUs())
	m := map[string]float64{}
	if err := led.finish(&bytes.Buffer{}, m); err != nil {
		t.Fatal(err)
	}
	if m["ledger.remainder_us"] != 2 {
		t.Fatalf("remainder %v µs, want 2", m["ledger.remainder_us"])
	}
}

func TestWindowMetricsSlices(t *testing.T) {
	// 1000 one-step operations in slices of 100; slices 1-3 are a slow
	// stretch (5×), and a tenth of all operations are twice as slow as
	// their neighbours. Every slice median ignores the slow stretch.
	var ops []opSample
	end := time.Duration(0)
	for i := 0; i < 1000; i++ {
		lat := 1.0
		if i >= 100 && i < 400 {
			lat = 5
		}
		if i%10 == 9 {
			lat *= 2
		}
		end += time.Duration(lat * float64(time.Millisecond))
		ops = append(ops, opSample{end: end, ms: lat, steps: 1})
	}
	m := map[string]float64{}
	p99, err := windowMetrics(m, ops, 100)
	if err != nil {
		t.Fatal(err)
	}
	if m["latency_p50_ms"] != 1 || m["latency_p90_ms"] != 1 {
		t.Fatalf("p50 %v p90 %v, want 1 and 1 (the 90th of 100 is the last fast one)", m["latency_p50_ms"], m["latency_p90_ms"])
	}
	if got := m["steps_per_s"]; got < 909 || got > 910 { // 100 steps in 110 ms
		t.Fatalf("steps_per_s %v, want 909.1", got)
	}
	if p99 != 10 {
		t.Fatalf("whole-window p99 %v, want 10", p99)
	}
	if _, err := windowMetrics(m, ops, 99); err == nil {
		t.Fatal("slices of 99 operations (p90 with 9 beyond) were accepted")
	}
	if _, err := windowMetrics(m, ops[:999], 100); err == nil {
		t.Fatal("a whole-window p99 over 999 operations was accepted")
	}
}
