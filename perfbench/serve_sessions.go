package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oic/internal/obs"
	"oic/pkg/oic"
)

// serve-sessions: a real oicd-router (cluster.Router) in front of one
// oicd shard (server.Server) on loopback, without a journal. nproc
// closed-loop clients run back-to-back 100-step ACC bang-bang episodes:
// create with x0, 100 single-step POSTs carrying the recorded w, delete.
// Transport, cluster and server dominate; κ is a small share, and each
// episode pays one cold first κ. Create and delete are writes beside the
// step reads.
const (
	sessionPool  = 128 // distinct episodes the clients cycle through
	episodeSteps = 100
	// residentSessions is how many sessions the heap probe holds open
	// after the measured phase, each stepped residentSteps times.
	residentSessions = 64
	residentSteps    = 50
)

// refEpisode is one pool episode and its library reference run.
type refEpisode struct {
	episode
	ref []oic.StepResult
}

func serveSessions(ctx context.Context, o opts) (*outcome, error) {
	cfg := oic.Config{Plant: "acc", Policy: oic.PolicyBangBang}
	m := map[string]float64{}
	if o.traced {
		if err := setupLayers(ctx, cfg, o.seed, streamServeSessions, sessionPool, episodeSteps, m); err != nil {
			return nil, err
		}
	}
	hc := newHTTPClient(o.clients)
	defer hc.Transport.(*http.Transport).CloseIdleConnections()
	var sys *routed
	setup, err := setupTimes(ctx, o, func() (time.Duration, error) {
		var err error
		if sys, err = startRouted(ctx); err != nil {
			return 0, err
		}
		// The shard builds its engine on the first create.
		body, _ := json.Marshal(oic.CreateSessionRequest{Plant: "acc", Policy: oic.PolicyBangBang, Seed: 1})
		b, err := do(ctx, hc, http.MethodPost, sys.d.url+"/v1/sessions", body, "", http.StatusCreated)
		if err != nil {
			return 0, fmt.Errorf("first session: %w", err)
		}
		var info oic.SessionInfo
		if err := json.Unmarshal(b, &info); err != nil {
			return 0, err
		}
		_, err = do(ctx, hc, http.MethodDelete, sys.d.url+"/v1/sessions/"+info.ID, nil, "", http.StatusOK)
		return 0, err
	})
	if sys != nil {
		defer sys.stop()
	}
	if err != nil || o.setupOnly {
		return setupOutcome(setup), err
	}

	// Inputs and the library reference come from the benchmark's own
	// engine, after set-up, so they do not warm the shard's.
	refEng, err := oic.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	cases, err := drawCases(refEng, o.seed, streamServeSessions, 0, sessionPool, episodeSteps)
	if err != nil {
		return nil, err
	}
	pool := make([]refEpisode, len(cases))
	var ks kappaStats
	var refRuns int
	for i, c := range cases {
		pool[i].episode = c
		ran := 0
		if _, err := libRun(ctx, refEng, c.x0, c.w, episodeSteps, func(_ int, r *oic.StepResult, d time.Duration) {
			pool[i].ref = append(pool[i].ref, *r)
			ks.add(r.Ran, r.Ran && ran == 0, d)
			if r.Ran {
				ran++
			}
		}); err != nil {
			return nil, err
		}
		refRuns += ran
	}
	refSteps := float64(sessionPool * episodeSteps)

	out := &outcome{metrics: m}
	if !o.traced {
		w, err := runSessionClients(ctx, o, sys.d.url, hc, pool, o.seconds, false)
		if err != nil {
			return nil, err
		}
		out.attempted, out.failed = w.attempted, w.failed
		p99, err := windowMetrics(m, w.ops, sliceOps)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(o.log, "serve-sessions: %d measured steps, whole-window p99 %.3f ms\n", len(w.ops), p99)
		m["setup_s"] = setup
		m["skip_pct"] = 100 * (refSteps - float64(refRuns)) / refSteps
		if m["heap_kb_per_member"], err = residentKB(ctx, sys.d.url, hc, pool); err != nil {
			return nil, err
		}
		return out, nil
	}

	half := o.seconds / 2
	a, err := runSessionClients(ctx, o, sys.d.url, hc, pool, half, false)
	if err != nil {
		return nil, err
	}
	rBefore, err := fetchScrape(ctx, hc, sys.d.url)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	sBefore, err := fetchScrape(ctx, hc, sys.shard.d.url)
	if err != nil {
		return nil, err
	}
	scrapeUs := us(time.Since(t))
	before := memSnapshot()
	b, err := runSessionClients(ctx, o, sys.d.url, hc, pool, half, true)
	if err != nil {
		return nil, err
	}
	md := memSince(before)
	rAfter, err := fetchScrape(ctx, hc, sys.d.url)
	if err != nil {
		return nil, err
	}
	sAfter, err := fetchScrape(ctx, hc, sys.shard.d.url)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = a.attempted+b.attempted, a.failed+b.failed

	st := selfTimes(b.logs)
	root, httpStep := st["client.step"], st["http.step"]
	proxyMean, proxied := rAfter.histMean(rBefore, "oicd_router_proxy_seconds")
	serverStep, _ := sAfter.histMean(sBefore, "oicd_step_seconds")
	sent := float64(b.creates + b.steps + b.deletes)
	if proxied < sent {
		return nil, fmt.Errorf("router proxied %v requests, clients sent %v", proxied, sent)
	}
	// The router's probe loop also fetches the shard's /metrics through
	// its proxy, about once a second; each such fetch is costed at what
	// the benchmark's own scrape of the shard took. The router's own time
	// per request is assumed equal for create, step and delete: client
	// round trips less the shard round trips it timed.
	proxySumUs := proxyMean*1e6*proxied - (proxied-sent)*scrapeUs
	httpAll := us(httpStep.total + b.createRT + b.deleteRT)
	clusterUs := (httpAll - proxySumUs) / sent
	proxyStepUs := httpStep.meanUs() - clusterUs
	serverStepUs := serverStep * 1e6
	kappaUs := float64(ks.coldNs+ks.warmNs) / 1e3 / refSteps
	skipUs := float64(ks.skipNs) / 1e3 / refSteps

	l := &ledger{op: "step", ops: root.n, e2eUs: root.meanUs()}
	l.add("client (JSON encode+decode)", st["client.encode"].meanUs()+st["client.decode"].meanUs())
	l.add("cluster (router)", clusterUs)
	l.add("transport (shard hop)", proxyStepUs-serverStepUs)
	l.add("server (handler less session)", serverStepUs-kappaUs-skipUs)
	l.add("controller (κ)", kappaUs)
	l.add("oic (skip path)", skipUs)
	ks.metrics(m)
	m["controller.kappas_per_op"] = float64(refRuns) / refSteps
	m["server.step_us"] = serverStepUs
	m["server.create_us"] = us(b.createRT) / float64(b.creates)
	m["server.delete_us"] = us(b.deleteRT) / float64(b.deletes)
	m["cluster.overhead_us"] = clusterUs
	m["transport.shard_hop_us"] = proxyStepUs - serverStepUs
	m["transport.bytes_per_step"] = float64(b.bytes) / float64(b.steps)
	m["runtime.alloc_bytes_per_step"] = float64(md.allocBytes) / float64(b.steps)
	m["runtime.gc_pause_us_per_op"] = float64(md.pauseNs) / 1e3 / float64(b.steps)
	m["ledger.client_us"] = st["client.encode"].meanUs() + st["client.decode"].meanUs()
	m["trace.overhead_pct"] = overheadPct(meanMs(a.ops), meanMs(b.ops))
	if err := l.finish(o.log, m); err != nil {
		return nil, err
	}
	if err := dumpSpans(o, b.logs); err != nil {
		return nil, err
	}
	return out, nil
}

// sessTotals is what session clients count in a measured window.
type sessTotals struct {
	ops                     []opSample // served steps
	steps, creates, deletes int64
	createRT, deleteRT      time.Duration
	bytes                   int64 // step request and reply bodies
	attempted, failed       int64 // requests
}

func (t *sessTotals) add(o *sessTotals) {
	t.ops = append(t.ops, o.ops...)
	t.steps += o.steps
	t.creates += o.creates
	t.deletes += o.deletes
	t.createRT += o.createRT
	t.deleteRT += o.deleteRT
	t.bytes += o.bytes
	t.attempted += o.attempted
	t.failed += o.failed
}

// sessionsWindow is one measured phase of the session clients.
type sessionsWindow struct {
	sessTotals
	logs []*spanLog // one per client when traced
}

// runSessionClients runs o.clients closed-loop clients for at least d;
// each finishes the episode it is in when time is up.
func runSessionClients(ctx context.Context, o opts, base string, hc *http.Client, pool []refEpisode,
	d time.Duration, traced bool) (*sessionsWindow, error) {
	var next atomic.Int64
	clients := make([]*sessClient, o.clients)
	errs := make([]error, o.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		c := &sessClient{hc: hc, base: base, start: start}
		if traced {
			c.log = newSpanLog(start, 1<<18)
		}
		clients[i] = c
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Since(start) < d {
				ep := int(next.Add(1)-1) % len(pool)
				if err := c.episodeSteps(ctx, &pool[ep], episodeSteps); err != nil {
					var he *httpError
					if !errors.As(err, &he) && !errors.Is(err, errTransport) {
						errs[i] = fmt.Errorf("episode %d: %w", ep, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	w := &sessionsWindow{}
	for i, c := range clients {
		if errs[i] != nil {
			return nil, errs[i]
		}
		w.add(&c.sessTotals)
		if c.log != nil {
			w.logs = append(w.logs, c.log)
		}
	}
	sort.Slice(w.ops, func(i, j int) bool { return w.ops[i].end < w.ops[j].end })
	return w, nil
}

// errTransport marks a request that failed below HTTP (counted as a
// failed operation, like a non-2xx reply).
var errTransport = errors.New("transport error")

// sessClient is one closed-loop client; only its own goroutine touches it.
type sessClient struct {
	hc    *http.Client
	base  string
	log   *spanLog  // nil when untraced
	start time.Time // of the measured window
	sessTotals
}

// request sends one request, counting it as attempted and, on a non-2xx
// reply or transport error, failed.
func (c *sessClient) request(ctx context.Context, method, url string, body []byte, trace string, want int) ([]byte, error) {
	c.attempted++
	b, err := do(ctx, c.hc, method, url, body, trace, want)
	if err != nil {
		c.failed++
		var he *httpError
		if !errors.As(err, &he) {
			err = fmt.Errorf("%w: %v", errTransport, err)
		}
	}
	return b, err
}

func (c *sessClient) traceID() string {
	if c.log == nil {
		return ""
	}
	return obs.NewTraceID()
}

// episodeSteps creates a session at the episode's x0, steps it n times
// checking every reply bit for bit against the library reference, and
// deletes it. HTTP and transport failures are returned as such (and
// counted); any other error is a failed output check.
func (c *sessClient) episodeSteps(ctx context.Context, ep *refEpisode, n int) error {
	body, err := json.Marshal(oic.CreateSessionRequest{Plant: "acc", Policy: oic.PolicyBangBang, X0: ep.x0})
	if err != nil {
		return err
	}
	t0 := time.Now()
	b, err := c.request(ctx, http.MethodPost, c.base+"/v1/sessions", body, c.traceID(), http.StatusCreated)
	if err != nil {
		return err
	}
	c.createRT += time.Since(t0)
	c.creates++
	var info oic.SessionInfo
	if err := json.Unmarshal(b, &info); err != nil {
		return fmt.Errorf("create reply: %w", err)
	}
	id := info.ID
	stepURL := c.base + "/v1/sessions/" + id + "/step"

	var stepErr error
	for t := 0; t < n && stepErr == nil; t++ {
		stepErr = c.step(ctx, stepURL, ep, t)
	}

	t0 = time.Now()
	b, err = c.request(ctx, http.MethodDelete, c.base+"/v1/sessions/"+id, nil, c.traceID(), http.StatusOK)
	if err != nil {
		return errors.Join(stepErr, err)
	}
	c.deleteRT += time.Since(t0)
	c.deletes++
	if stepErr != nil {
		return stepErr
	}
	if err := json.Unmarshal(b, &info); err != nil {
		return fmt.Errorf("delete reply: %w", err)
	}
	if info.Violations != 0 {
		return fmt.Errorf("session %s: %d safety violations", id, info.Violations)
	}
	if n == episodeSteps && info.T != n {
		return fmt.Errorf("session %s closed at t=%d, want %d", id, info.T, n)
	}
	return nil
}

// step sends one served step and checks it against the reference. The
// client round trip (encode, HTTP, decode) is the measured latency.
func (c *sessClient) step(ctx context.Context, url string, ep *refEpisode, t int) error {
	var r oic.StepResult
	start, end, n, err := tracedCall(c.log, "step", oic.StepRequest{W: ep.w[t]}, &r, func(body []byte, trace string) ([]byte, error) {
		return c.request(ctx, http.MethodPost, url, body, trace, http.StatusOK)
	})
	if err != nil {
		return err
	}
	c.ops = append(c.ops, opSample{end: end.Sub(c.start), ms: ms(end.Sub(start)), steps: 1})
	c.steps++
	c.bytes += int64(n)
	return sameStep(&r, &ep.ref[t])
}

// sameStep compares a served step with the library's, bit for bit.
func sameStep(got, want *oic.StepResult) error {
	if got.T != want.T || got.Ran != want.Ran || got.Forced != want.Forced || got.Level != want.Level ||
		!bitsEqual(got.U, want.U) || !bitsEqual(got.X, want.X) {
		return fmt.Errorf("step %d: served %+v, library %+v", want.T, *got, *want)
	}
	return nil
}

// residentKB opens residentSessions sessions through the router, steps
// each residentSteps times, and returns the live heap growth per session
// (router entry and shadow, server entry, session workspace).
func residentKB(ctx context.Context, base string, hc *http.Client, pool []refEpisode) (float64, error) {
	heap0 := liveHeap()
	c := &sessClient{hc: hc, base: base}
	ids := make([]string, 0, residentSessions)
	for i := 0; i < residentSessions; i++ {
		ep := &pool[i%len(pool)]
		body, err := json.Marshal(oic.CreateSessionRequest{Plant: "acc", Policy: oic.PolicyBangBang, X0: ep.x0})
		if err != nil {
			return 0, err
		}
		b, err := c.request(ctx, http.MethodPost, base+"/v1/sessions", body, "", http.StatusCreated)
		if err != nil {
			return 0, err
		}
		var info oic.SessionInfo
		if err := json.Unmarshal(b, &info); err != nil {
			return 0, err
		}
		ids = append(ids, info.ID)
		for t := 0; t < residentSteps; t++ {
			if err := c.step(ctx, base+"/v1/sessions/"+info.ID+"/step", ep, t); err != nil {
				return 0, err
			}
		}
	}
	kb := kbPer(heap0, liveHeap(), len(ids))
	runtime.KeepAlive(pool) // live at heap0, so it must not be freed before the second reading
	for _, id := range ids {
		if _, err := c.request(ctx, http.MethodDelete, base+"/v1/sessions/"+id, nil, "", http.StatusOK); err != nil {
			return 0, err
		}
	}
	return kb, nil
}
