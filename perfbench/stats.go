package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile, so
// that a tail figure rests on more than a handful of observations.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses when fewer than minBeyond samples lie above that rank: a p99
// needs at least 1000 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || !(q > 0 && q < 1) {
		return 0, fmt.Errorf("percentile %g of %d samples", q, n)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want ≥ %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median of xs (mean of the middle pair for even lengths).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// meanMs is the mean latency of ops, in ms.
func meanMs(ops []opSample) float64 {
	var s float64
	for _, op := range ops {
		s += op.ms
	}
	return s / float64(len(ops))
}

// overheadPct is the traced window's mean latency over the untraced one's,
// as a percentage change.
func overheadPct(untraced, traced float64) float64 { return 100 * (traced - untraced) / untraced }

// opSample is one completed operation of a measured window, in
// completion order.
type opSample struct {
	end   time.Duration // completion, since the window started
	ms    float64       // latency
	steps int           // control steps it completed
}

// sliceOps is how many operations a slice of a measured window holds at
// least: enough that its p90 has ten samples beyond it.
const sliceOps = 10 * minBeyond

// windowMetrics stores steps_per_s, latency_p50_ms and latency_p90_ms of
// a measured window, and returns the whole window's p99. The window is cut
// into consecutive slices of perSlice (≥ sliceOps) operations, a trailing
// partial slice joining the last one; each stored figure is the median
// over the slices of the slice's throughput or percentile. On a shared
// machine, other tenants slow whole stretches of a run by tens of
// percent: a slice median ignores such a stretch, while the
// interquartile range of a whole-window p99 of 1000 ticks reached a third
// of its median over ten runs.
func windowMetrics(m map[string]float64, ops []opSample, perSlice int) (float64, error) {
	if perSlice < sliceOps {
		return 0, fmt.Errorf("slices of %d operations, want ≥ %d", perSlice, sliceOps)
	}
	n := len(ops) / perSlice
	if n == 0 {
		return 0, fmt.Errorf("%d operations, want ≥ %d", len(ops), perSlice)
	}
	lat := make([]float64, len(ops))
	for i, op := range ops {
		lat[i] = op.ms
	}
	var rates, p50s, p90s []float64
	var from time.Duration
	for k := 0; k < n; k++ {
		lo, hi := k*perSlice, (k+1)*perSlice
		if k == n-1 {
			hi = len(ops)
		}
		steps := 0
		for _, op := range ops[lo:hi] {
			steps += op.steps
		}
		rates = append(rates, float64(steps)/(ops[hi-1].end-from).Seconds())
		from = ops[hi-1].end
		p50, err := percentile(lat[lo:hi], 0.50)
		if err != nil {
			return 0, err
		}
		p90, err := percentile(lat[lo:hi], 0.90)
		if err != nil {
			return 0, err
		}
		p50s, p90s = append(p50s, p50), append(p90s, p90)
	}
	m["steps_per_s"] = median(rates)
	m["latency_p50_ms"], m["latency_p90_ms"] = median(p50s), median(p90s)
	return percentile(lat, 0.99)
}

// liveHeap returns the live heap after a full collection. Two cycles
// empty sync.Pool victim caches, so pooled workspaces do not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// kbPer is the heap growth from base to now, in KB per member.
func kbPer(base, now uint64, members int) float64 {
	return (float64(now) - float64(base)) / 1024 / float64(members)
}

// memDelta is a runtime.MemStats difference over a measured phase.
type memDelta struct {
	allocBytes uint64
	pauseNs    uint64
}

func memSnapshot() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := memSnapshot()
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		pauseNs:    after.PauseTotalNs - before.PauseTotalNs,
	}
}

// setupRepeats is how many cold set-ups a run times; setup_s is their
// median. Engines share process-wide caches (the ACC model's compiled
// sets), so a set-up is only cold in a fresh process: the run times its
// own and those of setupRepeats-1 child processes started with
// -setup-only, one after another.
const setupRepeats = 3

// setupTimes runs setup once in this process and returns the median cold
// set-up time in seconds, less the time setup reports as excluded (input
// generation and heap baselines, the benchmark's own work). Traced and
// set-up-only runs time only their own set-up.
func setupTimes(ctx context.Context, o opts, setup func() (excluded time.Duration, err error)) (float64, error) {
	ds := []float64{}
	if !o.traced && !o.setupOnly {
		for i := 1; i < setupRepeats; i++ {
			d, err := childSetup(ctx, o)
			if err != nil {
				return 0, err
			}
			ds = append(ds, d)
		}
	}
	start := time.Now()
	excluded, err := setup()
	if err != nil {
		return 0, err
	}
	ds = append(ds, (time.Since(start) - excluded).Seconds())
	return median(ds), nil
}

// childSetup runs this binary with -setup-only and returns the set-up
// time it prints last.
func childSetup(ctx context.Context, o opts) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-out", o.dir, "-setup-only")
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	v, ok := strings.CutPrefix(lines[len(lines)-1], "setup_s ")
	if !ok {
		return 0, fmt.Errorf("set-up child printed %q", lines[len(lines)-1])
	}
	return strconv.ParseFloat(v, 64)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setupOutcome is a -setup-only run's result.
func setupOutcome(setup float64) *outcome {
	return &outcome{attempted: 1, metrics: map[string]float64{"setup_s": setup}}
}
