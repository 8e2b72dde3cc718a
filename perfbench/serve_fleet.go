package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"oic/internal/journal"
	"oic/internal/obs"
	"oic/internal/server"
	"oic/pkg/oic"
)

// serve-fleet-journaled: one oicd shard with the write-ahead journal on
// disk under the production fleet policy (one fsync per tick request). One
// fleet of 500 ACC members, always-run, compute budget 128, created over
// HTTP. One closed-loop client sends tick requests carrying every
// member's recorded w (~15 KB of JSON); after each tick the 5 oldest
// members (1%) are evicted and 5 fresh ones admitted. The journal (500
// appends and one fsync per tick), large-body decoding in server, the
// scheduler's shed path and cold first κ from churn work only here.
// Budget 96 would under-provision this fleet: forced waves then refuse
// admissions.
const (
	journaledMembers  = 500
	journaledBudget   = 128
	churnPerTick      = 5
	journaledMinTicks = 1000
	// memberLife is how many ticks a member lives under FIFO churn, and
	// so the length of each member's recorded trace.
	memberLife = journaledMembers / churnPerTick
)

// member is one fleet member: its ID, its case and the tick it joined.
type member struct{ id, c, at int }

// tickLog is what the benchmark keeps of one served tick and the churn
// after it; the in-process reference repeats it.
type tickLog struct {
	rep      oic.TickReport
	rt       time.Duration // tick request round trip, encode to decode
	end      time.Time
	bytes    int // request and reply bodies
	evicted  []int
	admitted []member
}

// churnCases holds member cases: case j is the j-th member ever
// admitted. Set-up draws enough for the warm-up and the shortest measured
// window; a longer window draws more on demand.
type churnCases struct {
	eng   *oic.Engine
	seed  int64
	cases []episode
}

func (cc *churnCases) get(j int) (*episode, error) {
	if n := j + 1 - len(cc.cases); n > 0 {
		more, err := drawCases(cc.eng, cc.seed, streamServeFleet, len(cc.cases), n, memberLife)
		if err != nil {
			return nil, err
		}
		cc.cases = append(cc.cases, more...)
	}
	return &cc.cases[j], nil
}

// ws is tick k's disturbance map: each member's trace at its age.
func ws(live []member, cc *churnCases, k int) map[int][]float64 {
	out := make(map[int][]float64, len(live))
	for _, m := range live {
		out[m.id] = cc.cases[m.c].w[k-m.at]
	}
	return out
}

func serveFleetJournaled(ctx context.Context, o opts) (*outcome, error) {
	cfg := oic.Config{Plant: "acc", Policy: oic.PolicyAlwaysRun}
	m := map[string]float64{}
	if o.traced {
		if err := setupLayers(ctx, cfg, o.seed, streamServeFleet, journaledMembers, memberLife, m); err != nil {
			return nil, err
		}
	}
	hc := newHTTPClient(1)
	defer hc.Transport.(*http.Transport).CloseIdleConnections()
	dir := filepath.Join(o.dir, "journal-"+strconv.Itoa(os.Getpid()))
	var (
		sh     *shard
		fleet  string // fleet URL
		refEng *oic.Engine
		cc     *churnCases
		live   []member
		heap0  uint64
	)
	setup, err := setupTimes(ctx, o, func() (time.Duration, error) {
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		srv := server.New(server.Config{})
		if err := srv.OpenJournal(journal.Options{Dir: dir, Policy: journal.SyncEveryTick}); err != nil {
			return 0, err
		}
		var err error
		if sh, err = startShard(srv); err != nil {
			srv.Close()
			return 0, err
		}
		// The shard builds its engine on fleet creation.
		body, _ := json.Marshal(oic.CreateFleetRequest{
			Plant: "acc", Policy: oic.PolicyAlwaysRun,
			ComputeBudget: journaledBudget, MaxSessions: journaledMembers + churnPerTick,
		})
		b, err := do(ctx, hc, http.MethodPost, sh.d.url+"/v1/fleets", body, "", http.StatusCreated)
		if err != nil {
			return 0, fmt.Errorf("creating fleet: %w", err)
		}
		var info oic.FleetInfo
		if err := json.Unmarshal(b, &info); err != nil {
			return 0, err
		}
		fleet = sh.d.url + "/v1/fleets/" + info.ID

		// Inputs come from the benchmark's own engine, built after the
		// shard's so the shard's build is cold.
		t := time.Now()
		if refEng, err = oic.NewEngine(cfg); err != nil {
			return 0, err
		}
		cc = &churnCases{eng: refEng, seed: o.seed}
		if _, err := cc.get(journaledMembers + (memberLife+journaledMinTicks)*churnPerTick - 1); err != nil {
			return 0, err
		}
		heap0 = liveHeap()
		excluded := time.Since(t)

		for j := 0; j < journaledMembers; j++ {
			id, err := admit(ctx, hc, fleet, cc.cases[j].x0, "")
			if err != nil {
				return 0, err
			}
			live = append(live, member{id: id, c: j})
		}
		return excluded, nil
	})
	if sh != nil {
		defer func() {
			sh.stop()
			os.RemoveAll(dir)
		}()
	}
	if err != nil || o.setupOnly {
		return setupOutcome(setup), err
	}

	var ticks []tickLog
	nextCase := journaledMembers
	// window runs tick-and-churn cycles for at least d and minTicks ticks
	// and returns its ticks as measured operations.
	window := func(d time.Duration, minTicks int, log *spanLog) ([]opSample, error) {
		first, start := len(ticks), time.Now()
		for n := 0; n < minTicks || time.Since(start) < d; n++ {
			k := len(ticks)
			tl, err := tickRequest(ctx, hc, fleet, ws(live, cc, k), log)
			if err != nil {
				return nil, fmt.Errorf("tick %d: %w", k, err)
			}
			for _, m := range live[:churnPerTick] {
				trace := ""
				t0 := time.Now()
				if log != nil {
					trace = obs.NewTraceID()
				}
				if _, err := do(ctx, hc, http.MethodDelete, fleet+"/sessions/"+strconv.Itoa(m.id), nil, trace, http.StatusOK); err != nil {
					return nil, fmt.Errorf("tick %d: evicting member %d: %w", k, m.id, err)
				}
				if log != nil {
					log.close(log.open("client.evict", trace, -1, t0), time.Now())
				}
				tl.evicted = append(tl.evicted, m.id)
			}
			live = live[churnPerTick:]
			for i := 0; i < churnPerTick; i++ {
				c, err := cc.get(nextCase)
				if err != nil {
					return nil, err
				}
				trace := ""
				t0 := time.Now()
				if log != nil {
					trace = obs.NewTraceID()
				}
				id, err := admit(ctx, hc, fleet, c.x0, trace)
				if err != nil {
					return nil, fmt.Errorf("tick %d: %w", k, err)
				}
				if log != nil {
					log.close(log.open("client.admit", trace, -1, t0), time.Now())
				}
				m := member{id: id, c: nextCase, at: k + 1}
				live = append(live, m)
				tl.admitted = append(tl.admitted, m)
				nextCase++
			}
			ticks = append(ticks, tl)
		}
		ops := make([]opSample, 0, len(ticks)-first)
		for _, t := range ticks[first:] {
			ops = append(ops, opSample{end: t.end.Sub(start), ms: ms(t.rt), steps: t.rep.Sessions})
		}
		return ops, nil
	}

	// Warm-up: one member lifetime, after which every initial member has
	// been replaced and churn is steady. Every member's state is then
	// snapshotted for the reference check.
	if _, err := window(0, memberLife, nil); err != nil {
		return nil, err
	}
	snap, err := memberStates(ctx, hc, fleet, live)
	if err != nil {
		return nil, err
	}

	out := &outcome{metrics: m}
	if !o.traced {
		first := len(ticks)
		ops, err := window(o.seconds, journaledMinTicks, nil)
		if err != nil {
			return nil, err
		}
		heap1 := liveHeap()
		p99, err := windowMetrics(m, ops, memberLife)
		if err != nil {
			return nil, err
		}
		var saved int64
		for _, t := range ticks[first : first+journaledMinTicks] { // a fixed tick count, so the figure is deterministic
			saved += int64(t.rep.Skips + t.rep.Shed)
		}
		m["setup_s"] = setup
		m["heap_kb_per_member"] = kbPer(heap0, heap1, len(live))
		m["skip_pct"] = 100 * float64(saved) / float64(journaledMinTicks*journaledMembers)
		// The in-process reference costs about as much as the served
		// ticks, so the untraced run checks the warm-up and the traced run
		// checks every tick.
		if _, err := checkAgainstFleet(ctx, refEng, cc, ticks[:memberLife], snap); err != nil {
			return nil, err
		}
		reps := make([]oic.TickReport, memberLife+journaledMinTicks)
		for i := range reps {
			reps[i] = ticks[i].rep
		}
		fmt.Fprintf(o.log, "serve-fleet-journaled: %d ticks (%d measured), whole-window p99 %.3f ms, digest of the first %d %016x\n",
			len(ticks), len(ops), p99, len(reps), countsDigest(reps))
		out.attempted = int64(len(ticks) * (1 + 2*churnPerTick))
		return out, nil
	}

	half := o.seconds / 2
	opsA, err := window(half, 2*memberLife, nil)
	if err != nil {
		return nil, err
	}
	sBefore, err := fetchScrape(ctx, hc, sh.d.url)
	if err != nil {
		return nil, err
	}
	log := newSpanLog(time.Now(), 1<<16)
	before := memSnapshot()
	firstB := len(ticks)
	opsB, err := window(half, 2*memberLife, log)
	if err != nil {
		return nil, err
	}
	md := memSince(before)
	sAfter, err := fetchScrape(ctx, hc, sh.d.url)
	if err != nil {
		return nil, err
	}
	refTicks, err := checkAgainstFleet(ctx, refEng, cc, ticks, snap)
	if err != nil {
		return nil, err
	}
	out.attempted = int64(len(ticks) * (1 + 2*churnPerTick))

	winB := ticks[firstB:]
	n := float64(len(winB))
	var rep sumReport
	var refTick time.Duration
	for i, t := range winB {
		rep.add(t.rep)
		refTick += refTicks[firstB+i]
	}
	rep.metrics(m, n)
	st := selfTimes([]*spanLog{log})
	root := st["client.tick"]
	serverTick, _ := sAfter.histMean(sBefore, "oicd_fleet_tick_seconds")
	appendMean, _ := sAfter.histMean(sBefore, "oicd_journal_append_seconds")
	syncMean, _ := sAfter.histMean(sBefore, "oicd_journal_sync_seconds")
	serverTickUs, syncUs := serverTick*1e6, syncMean*1e6
	transportUs := st["http.tick"].meanUs() - serverTickUs - syncUs
	appendShareUs := appendMean * 1e6 * float64(rep.sessions) / n / float64(runtime.GOMAXPROCS(0))
	var tickBytes int64
	for _, t := range winB {
		tickBytes += int64(t.bytes)
	}

	l := &ledger{op: "tick", ops: root.n, e2eUs: root.meanUs()}
	clientUs := st["client.encode"].meanUs() + st["client.decode"].meanUs()
	l.add("client (JSON encode+decode)", clientUs)
	l.add("transport (decode+encode+TCP)", transportUs)
	l.add("journal (fsync)", syncUs)
	l.add("journal (appends ÷ workers)", appendShareUs)
	l.add("sched+controller+oic (in-process tick)", us(refTick)/n)
	m["controller.kappas_per_op"] = float64(rep.computes) / n
	m["server.tick_ms"] = serverTickUs / 1e3
	m["server.admit_us"] = st["client.admit"].meanUs()
	m["server.evict_us"] = st["client.evict"].meanUs()
	m["transport.tick_decode_ms"] = transportUs / 1e3
	m["transport.bytes_per_step"] = float64(tickBytes) / float64(rep.sessions)
	m["journal.append_us"] = appendMean * 1e6
	m["journal.sync_ms"] = syncMean * 1e3
	m["journal.bytes_per_step"] = sAfter.delta(sBefore, "oicd_journal_bytes_total") / float64(rep.sessions)
	m["runtime.alloc_bytes_per_step"] = float64(md.allocBytes) / float64(rep.sessions)
	m["runtime.gc_pause_us_per_op"] = float64(md.pauseNs) / 1e3 / n
	m["ledger.client_us"] = clientUs
	m["trace.overhead_pct"] = overheadPct(meanMs(opsA), meanMs(opsB))
	if err := l.finish(o.log, m); err != nil {
		return nil, err
	}
	if err := dumpSpans(o, []*spanLog{log}); err != nil {
		return nil, err
	}
	return out, nil
}

// tickRequest sends one tick request and checks its report. Its round
// trip (encode, HTTP, decode) is the measured latency.
func tickRequest(ctx context.Context, hc *http.Client, fleet string, ws map[int][]float64, log *spanLog) (tickLog, error) {
	var resp oic.FleetTickResponse
	start, end, n, err := tracedCall(log, "tick", oic.FleetTickRequest{WS: ws}, &resp, func(body []byte, trace string) ([]byte, error) {
		return do(ctx, hc, http.MethodPost, fleet+"/tick", body, trace, http.StatusOK)
	})
	if err != nil {
		return tickLog{}, err
	}
	if len(resp.Reports) != 1 {
		return tickLog{}, fmt.Errorf("tick reply has %d reports", len(resp.Reports))
	}
	rep := resp.Reports[0]
	if rep.Violations != 0 || len(rep.Errors) != 0 || rep.Sessions != len(ws) {
		return tickLog{}, fmt.Errorf("tick report: %d violations, %d member errors, %d of %d members stepped",
			rep.Violations, len(rep.Errors), rep.Sessions, len(ws))
	}
	return tickLog{rep: rep, rt: end.Sub(start), end: end, bytes: n}, nil
}

// admit admits one member at x0 over HTTP and returns its ID.
func admit(ctx context.Context, hc *http.Client, fleet string, x0 []float64, trace string) (int, error) {
	body, err := json.Marshal(oic.FleetAdmitRequest{X0: x0})
	if err != nil {
		return 0, err
	}
	b, err := do(ctx, hc, http.MethodPost, fleet+"/sessions", body, trace, http.StatusCreated)
	if err != nil {
		return 0, fmt.Errorf("admitting member: %w", err)
	}
	var info oic.FleetMemberInfo
	if err := json.Unmarshal(b, &info); err != nil {
		return 0, fmt.Errorf("admit reply: %w", err)
	}
	return info.ID, nil
}

// memberStates reads every live member's state over HTTP.
func memberStates(ctx context.Context, hc *http.Client, fleet string, live []member) ([]oic.FleetMemberInfo, error) {
	out := make([]oic.FleetMemberInfo, len(live))
	for i, m := range live {
		b, err := do(ctx, hc, http.MethodGet, fleet+"/sessions/"+strconv.Itoa(m.id), nil, "", http.StatusOK)
		if err != nil {
			return nil, fmt.Errorf("reading member %d: %w", m.id, err)
		}
		if err := json.Unmarshal(b, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkAgainstFleet repeats the served ticks and churn on an in-process
// Fleet of the same configuration. Each tick's decision counts and each
// admitted member's ID must match, and after the warm-up (memberLife
// ticks) every member's state must equal the served snapshot bit for
// bit. It returns the reference's in-process tick times
// (TickReport.Elapsed).
func checkAgainstFleet(ctx context.Context, e *oic.Engine, cc *churnCases, ticks []tickLog,
	snap []oic.FleetMemberInfo) ([]time.Duration, error) {
	f, err := e.NewFleet(oic.FleetConfig{ComputeBudget: journaledBudget, MaxSessions: journaledMembers + churnPerTick})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	live := make([]member, 0, journaledMembers+churnPerTick)
	for j := 0; j < journaledMembers; j++ {
		id, err := f.Admit(cc.cases[j].x0)
		if err != nil {
			return nil, err
		}
		live = append(live, member{id: id, c: j})
	}
	elapsed := make([]time.Duration, len(ticks))
	for k, t := range ticks {
		rep, err := f.Tick(ctx, ws(live, cc, k))
		if err != nil {
			return nil, fmt.Errorf("reference tick %d: %w", k, err)
		}
		got, want := t.rep, rep
		if got.Sessions != want.Sessions || got.Skips != want.Skips || got.Computes != want.Computes ||
			got.Forced != want.Forced || got.Shed != want.Shed || got.Overrun != want.Overrun || want.Violations != 0 {
			return nil, fmt.Errorf("tick %d: served %+v, in-process reference %+v", k, got, want)
		}
		elapsed[k] = rep.Elapsed
		for _, id := range t.evicted {
			if err := f.Evict(id); err != nil {
				return nil, fmt.Errorf("reference evict after tick %d: %w", k, err)
			}
		}
		live = live[len(t.evicted):]
		for _, a := range t.admitted {
			id, err := f.Admit(cc.cases[a.c].x0)
			if err != nil {
				return nil, fmt.Errorf("reference admit after tick %d: %w", k, err)
			}
			if id != a.id {
				return nil, fmt.Errorf("after tick %d: served member ID %d, reference %d", k, a.id, id)
			}
			live = append(live, a)
		}
		if k == memberLife-1 {
			for _, want := range snap {
				got, err := f.Member(want.ID)
				if err != nil {
					return nil, err
				}
				if got.T != want.T || got.Runs != want.Runs || got.Skips != want.Skips || got.Forced != want.Forced ||
					got.Violations != 0 || want.Violations != 0 || !bitsEqual(got.X, want.X) {
					return nil, fmt.Errorf("member %d after warm-up: served %+v, in-process reference %+v", want.ID, want, got)
				}
			}
		}
	}
	return elapsed, nil
}
