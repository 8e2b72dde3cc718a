package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"oic/internal/cluster"
	"oic/internal/obs"
	"oic/internal/server"
)

// daemon is one in-process HTTP server on a loopback listener, serving
// the same handler the oicd or oicd-router binary would.
type daemon struct {
	url  string
	hs   *http.Server
	done chan error
}

func startDaemon(h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the listener and every connection and waits for the serve
// goroutine. It runs after the clients are done, so no request is in
// flight; a graceful Shutdown would wait up to five seconds for any
// connection a client transport dialed but never used.
func (d *daemon) stop() {
	d.hs.Close()
	<-d.done
}

// shard is one oicd server.Server on loopback.
type shard struct {
	srv *server.Server
	d   *daemon
}

func startShard(srv *server.Server) (*shard, error) {
	d, err := startDaemon(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &shard{srv: srv, d: d}, nil
}

// stop drains HTTP first, then closes the server (flushing its journal).
func (s *shard) stop() {
	s.d.stop()
	s.srv.Close()
}

// routed is an oicd-router (cluster.Router) in front of one shard.
type routed struct {
	shard *shard
	rt    *cluster.Router
	d     *daemon
}

// probeInterval is oicd-router's default health and load probe period.
const probeInterval = time.Second

func startRouted(ctx context.Context) (*routed, error) {
	sh, err := startShard(server.New(server.Config{}))
	if err != nil {
		return nil, err
	}
	rt, err := cluster.New(&cluster.Membership{Nodes: []cluster.Node{{Name: "a", Addr: sh.d.url}}}, cluster.Config{})
	if err != nil {
		sh.stop()
		return nil, err
	}
	rt.ProbeOnce(ctx) // the shard must read ready before the first placement
	rt.Start(ctx, probeInterval)
	d, err := startDaemon(rt.Handler())
	if err != nil {
		rt.Stop()
		sh.stop()
		return nil, err
	}
	return &routed{shard: sh, rt: rt, d: d}, nil
}

func (r *routed) stop() {
	r.d.stop()
	r.rt.Stop()
	r.shard.stop()
}

// newHTTPClient returns a client holding at most conns connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// httpError is a non-2xx reply: a failed operation, not a transport error.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("status %d: %s", e.status, e.body) }

// do sends one request and returns the reply body; trace, when set, is
// sent as the request's X-Oic-Trace-Id. A status other than want is an
// *httpError.
func do(ctx context.Context, c *http.Client, method, url string, body []byte, trace string, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, &httpError{status: resp.StatusCode, body: string(b)}
	}
	return b, nil
}
