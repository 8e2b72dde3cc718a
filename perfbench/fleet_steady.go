package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"oic/pkg/oic"
)

// fleet-steady: an in-process oic.Fleet of 1000 ACC members under the
// bang-bang policy on the Fig. 4 scenario with a compute budget of 96,
// in a closed loop (each tick starts when the previous one returns). No
// transport, server or journal is involved, so κ (controller, lp) and
// per-member memory do nearly all the work: a serving-layer change must
// show no change here.
const (
	steadyMembers = 1000
	steadyBudget  = 96
	// sinePeriod is the Fig. 4 sinusoid's period in ticks. Every member's
	// trace is in phase, so forced-compute waves recur every period; the
	// measured window starts and ends on period boundaries.
	sinePeriod = 40
	// steadyTrace is the recorded disturbance trace each member cycles
	// through: whole periods, so the sinusoid stays continuous.
	steadyTrace = 10 * sinePeriod
	// steadyMinTicks is the shortest measured window: whole periods and
	// at least 1000 ticks, so ten tick latencies lie beyond the p99.
	steadyMinTicks = 26 * sinePeriod
	// checkMembers is how many members the untraced run replays as
	// standalone sessions; the traced run replays all of them.
	checkMembers = 32
)

// tickRecord is what the benchmark keeps of one tick.
type tickRecord struct {
	rep  oic.TickReport
	wall time.Duration // Fleet.Tick call, measured by the benchmark
	end  time.Time
}

func fleetSteady(ctx context.Context, o opts) (*outcome, error) {
	cfg := oic.Config{Plant: "acc", Policy: oic.PolicyBangBang}
	m := map[string]float64{}
	if o.traced {
		if err := setupLayers(ctx, cfg, o.seed, streamFleetSteady, steadyMembers, steadyTrace, m); err != nil {
			return nil, err
		}
	}
	var (
		cases []episode
		eng   *oic.Engine
		fleet *oic.Fleet
		ids   []int
		heap0 uint64
	)
	setup, err := setupTimes(ctx, o, func() (time.Duration, error) {
		var err error
		if eng, err = oic.NewEngine(cfg); err != nil {
			return 0, err
		}
		t := time.Now()
		if cases, err = drawCases(eng, o.seed, streamFleetSteady, 0, steadyMembers, steadyTrace); err != nil {
			return 0, err
		}
		heap0 = liveHeap()
		excluded := time.Since(t)
		if fleet, err = eng.NewFleet(oic.FleetConfig{ComputeBudget: steadyBudget, MaxSessions: steadyMembers}); err != nil {
			return 0, err
		}
		ids = make([]int, len(cases))
		for i, c := range cases {
			if ids[i], err = fleet.Admit(c.x0); err != nil {
				return 0, fmt.Errorf("admitting member %d: %w", i, err)
			}
		}
		return excluded, nil
	})
	if fleet != nil {
		defer fleet.Close()
	}
	if err != nil || o.setupOnly {
		return setupOutcome(setup), err
	}

	var (
		ticks []tickRecord
		ws    = make(map[int][]float64, len(ids))
	)
	tick := func(log *spanLog) error {
		k := len(ticks)
		for i, id := range ids {
			ws[id] = cases[i].w[k%steadyTrace]
		}
		start := time.Now()
		si := int32(-1)
		if log != nil {
			si = log.open("oic.Fleet.Tick", "", -1, start)
		}
		rep, err := fleet.Tick(ctx, ws)
		end := time.Now()
		if log != nil {
			log.close(si, end)
		}
		if err != nil {
			return fmt.Errorf("tick %d: %w", k, err)
		}
		if rep.Violations != 0 || len(rep.Errors) != 0 {
			return fmt.Errorf("tick %d: %d safety violations, member errors %v", k, rep.Violations, rep.Errors)
		}
		ticks = append(ticks, tickRecord{rep: rep, wall: end.Sub(start), end: end})
		return nil
	}

	// Warm-up: run until every member's cold first κ is done, then on to a
	// period boundary, so the window measures the steady state.
	for warm := false; !warm || len(ticks)%sinePeriod != 0; {
		if len(ticks) == steadyTrace {
			return nil, fmt.Errorf("warm-up: some member ran no κ in %d ticks", steadyTrace)
		}
		if err := tick(nil); err != nil {
			return nil, err
		}
		if !warm {
			if warm, err = allComputed(fleet, ids); err != nil {
				return nil, err
			}
		}
	}

	// window runs whole periods for at least d and minTicks ticks and
	// returns its ticks as measured operations.
	window := func(d time.Duration, minTicks int, log *spanLog) ([]opSample, error) {
		first, start := len(ticks), time.Now()
		for n := 0; n < minTicks || n%sinePeriod != 0 || time.Since(start) < d; n++ {
			if err := tick(log); err != nil {
				return nil, err
			}
		}
		ops := make([]opSample, 0, len(ticks)-first)
		for _, t := range ticks[first:] {
			ops = append(ops, opSample{end: t.end.Sub(start), ms: ms(t.wall), steps: t.rep.Sessions})
		}
		return ops, nil
	}

	if !o.traced {
		first := len(ticks)
		ops, err := window(o.seconds, steadyMinTicks, nil)
		if err != nil {
			return nil, err
		}
		heap1 := liveHeap()
		p99, err := windowMetrics(m, ops, 3*sinePeriod) // whole periods, ≥ sliceOps
		if err != nil {
			return nil, err
		}
		var saved int64
		for _, t := range ticks[first : first+steadyMinTicks] { // a fixed tick count, so the figure is deterministic
			saved += int64(t.rep.Skips + t.rep.Shed)
		}
		m["setup_s"] = setup
		m["heap_kb_per_member"] = kbPer(heap0, heap1, fleet.Size())
		m["skip_pct"] = 100 * float64(saved) / float64(steadyMinTicks*steadyMembers)
		reps := make([]oic.TickReport, first+steadyMinTicks)
		for i := range reps {
			reps[i] = ticks[i].rep
		}
		fmt.Fprintf(o.log, "fleet-steady: %d warm-up + %d measured ticks, whole-window p99 %.3f ms, digest of the first %d %016x\n",
			first, len(ops), p99, len(reps), countsDigest(reps))
		if err := checkFleetReplay(ctx, o, eng, fleet, cases, ids, ticks, sampleMembers(o.seed, len(ids)), nil); err != nil {
			return nil, err
		}
		return &outcome{attempted: int64(len(ticks)), metrics: m}, nil
	}

	// Traced run: an untraced window, then a traced one of equal length;
	// their difference is the tracing overhead.
	half := o.seconds / 2
	opsA, err := window(half, 2*sinePeriod, nil)
	if err != nil {
		return nil, err
	}
	log := newSpanLog(time.Now(), int(half/time.Millisecond))
	before := memSnapshot()
	firstB := len(ticks)
	opsB, err := window(half, 2*sinePeriod, log)
	if err != nil {
		return nil, err
	}
	md := memSince(before)
	winB := ticks[firstB:]

	all := make([]int, len(ids))
	for i := range all {
		all[i] = i
	}
	var ks kappaStats
	perTick := make([]tickCost, len(ticks))
	if err := checkFleetReplay(ctx, o, eng, fleet, cases, ids, ticks, all, &replayTiming{ks: &ks, perTick: perTick}); err != nil {
		return nil, err
	}
	ks.metrics(m)

	workers := float64(runtime.GOMAXPROCS(0))
	var rep sumReport
	var kappaUs, skipUs float64
	for i, t := range winB {
		rep.add(t.rep)
		c := perTick[firstB+i]
		kappaUs += us(c.kappa) / workers
		skipUs += us(c.skip) / workers
	}
	n := float64(len(winB))
	st := selfTimes([]*spanLog{log})["oic.Fleet.Tick"]
	l := &ledger{op: "tick", ops: st.n, e2eUs: st.meanUs()}
	l.add("controller (κ, ÷ workers)", kappaUs/n)
	l.add("oic (skip path, ÷ workers)", skipUs/n)
	rep.metrics(m, n)
	m["sched.overhead_ms"] = l.remainderUs() / 1e3
	m["controller.kappas_per_op"] = float64(rep.computes) / n
	m["runtime.alloc_bytes_per_step"] = float64(md.allocBytes) / float64(rep.sessions)
	m["runtime.gc_pause_us_per_op"] = float64(md.pauseNs) / 1e3 / n
	m["trace.overhead_pct"] = overheadPct(meanMs(opsA), meanMs(opsB))
	if err := l.finish(o.log, m); err != nil {
		return nil, err
	}
	if err := dumpSpans(o, []*spanLog{log}); err != nil {
		return nil, err
	}
	return &outcome{attempted: int64(len(ticks)), metrics: m}, nil
}

// allComputed reports whether every member has run at least one κ.
func allComputed(f *oic.Fleet, ids []int) (bool, error) {
	for _, id := range ids {
		info, err := f.Member(id)
		if err != nil {
			return false, err
		}
		if info.Runs == 0 {
			return false, nil
		}
	}
	return true, nil
}

// sampleMembers picks checkMembers member indices, one from each equal
// slice of the roster, at a seed-dependent offset.
func sampleMembers(seed int64, n int) []int {
	stride := n / checkMembers
	off := int(caseSeed(seed, streamFleetSteady, n) % int64(stride))
	out := make([]int, checkMembers)
	for j := range out {
		out[j] = j*stride + off
	}
	return out
}

// countsDigest is an FNV-1a hash of per-tick decision counts. Over a
// fixed number of ticks it is a pure function of the seed: two runs of
// one seed print the same digest.
func countsDigest(reps []oic.TickReport) uint64 {
	h := uint64(14695981039346656037)
	for _, r := range reps {
		for _, v := range []int{r.Sessions, r.Skips, r.Computes, r.Forced, r.Shed, r.Overrun} {
			h ^= uint64(v)
			h *= 1099511628211
		}
	}
	return h
}

// tickCost is the library step time the replay attributes to one tick.
type tickCost struct{ kappa, skip time.Duration }

// replayTiming collects step timings when the replay covers every member.
type replayTiming struct {
	ks      *kappaStats
	perTick []tickCost
}

// checkFleetReplay replays the members at idx as standalone library
// sessions over the same x0 and disturbances and checks each against the
// fleet: final state bit for bit, and run, skip and forced counts. Under
// bang-bang every compute is forced, so nothing is shed and a member's
// trajectory equals its standalone session's. With timing set, idx must
// be every member: the replay's κ count per tick must then equal the
// fleet's, and its step times are attributed to ticks.
func checkFleetReplay(ctx context.Context, o opts, e *oic.Engine, f *oic.Fleet, cases []episode, ids []int,
	ticks []tickRecord, idx []int, timing *replayTiming) error {
	want := make([]oic.FleetMemberInfo, len(idx))
	for j, i := range idx {
		var err error
		if want[j], err = f.Member(ids[i]); err != nil {
			return err
		}
	}
	n := len(ticks)
	type part struct {
		ks      kappaStats
		ran     []int32
		perTick []tickCost
		err     error
	}
	parts := make([]part, o.clients)
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func(pt *part, p int) {
			defer wg.Done()
			pt.ran = make([]int32, n)
			if timing != nil {
				pt.perTick = make([]tickCost, n)
			}
			for j := p; j < len(idx) && pt.err == nil; j += len(parts) {
				c := cases[idx[j]]
				ran := 0
				info, err := libRun(ctx, e, c.x0, c.w, n, func(t int, r *oic.StepResult, d time.Duration) {
					if timing != nil {
						pt.ks.add(r.Ran, r.Ran && ran == 0, d)
						if r.Ran {
							pt.perTick[t].kappa += d
						} else {
							pt.perTick[t].skip += d
						}
					}
					if r.Ran {
						pt.ran[t]++
						ran++
					}
				})
				if err == nil {
					err = sameMember(info, want[j])
				}
				if err != nil {
					pt.err = fmt.Errorf("member %d: %w", ids[idx[j]], err)
				}
			}
		}(&parts[p], p)
	}
	wg.Wait()
	ran := make([]int32, n)
	for _, pt := range parts {
		if pt.err != nil {
			return pt.err
		}
		for t := range ran {
			ran[t] += pt.ran[t]
		}
		if timing != nil {
			timing.ks.merge(pt.ks)
			for t := range timing.perTick {
				timing.perTick[t].kappa += pt.perTick[t].kappa
				timing.perTick[t].skip += pt.perTick[t].skip
			}
		}
	}
	if timing != nil {
		for t, tr := range ticks {
			if int(ran[t]) != tr.rep.Computes || tr.rep.Shed != 0 {
				return fmt.Errorf("tick %d: fleet ran %d κ (shed %d), standalone replay %d",
					t, tr.rep.Computes, tr.rep.Shed, ran[t])
			}
		}
	}
	return nil
}

func sameMember(got oic.SessionInfo, want oic.FleetMemberInfo) error {
	if got.T != want.T || got.Runs != want.Runs || got.Skips != want.Skips || got.Forced != want.Forced {
		return fmt.Errorf("standalone t=%d runs=%d skips=%d forced=%d, fleet t=%d runs=%d skips=%d forced=%d",
			got.T, got.Runs, got.Skips, got.Forced, want.T, want.Runs, want.Skips, want.Forced)
	}
	if want.Violations != 0 {
		return fmt.Errorf("%d safety violations", want.Violations)
	}
	if !bitsEqual(got.X, want.X) {
		return fmt.Errorf("final state %v, fleet %v", got.X, want.X)
	}
	return nil
}

// sumReport accumulates TickReports over a window.
type sumReport struct {
	sessions, computes, forced, shed, skips int64
	elapsed                                 time.Duration
}

func (s *sumReport) add(r oic.TickReport) {
	s.sessions += int64(r.Sessions)
	s.computes += int64(r.Computes)
	s.forced += int64(r.Forced)
	s.shed += int64(r.Shed)
	s.skips += int64(r.Skips)
	s.elapsed += r.Elapsed
}

// metrics stores the scheduler's per-tick figures over n ticks.
func (s *sumReport) metrics(m map[string]float64, n float64) {
	m["sched.tick_ms"] = ms(s.elapsed) / n
	m["sched.computes_per_tick"] = float64(s.computes) / n
	m["sched.forced_per_tick"] = float64(s.forced) / n
	m["sched.shed_per_tick"] = float64(s.shed) / n
	m["sched.skips_per_tick"] = float64(s.skips) / n
}
