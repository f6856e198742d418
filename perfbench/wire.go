package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// connGauge counts the generator's open TCP connections across every
// transport in the process, and the most ever open at once. The benchmark
// asserts the peak never exceeds nproc: more connections than cores would
// measure the generator's scheduler, not the server.
type connGauge struct {
	open, peak atomic.Int64
}

func (g *connGauge) inc() {
	n := g.open.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

type countedConn struct {
	net.Conn
	g    *connGauge
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.g.open.Add(-1) })
	return c.Conn.Close()
}

// endpointOf names the endpoint a request path belongs to.
func endpointOf(path string) string {
	switch {
	case path == "/v1/locate":
		return "locate"
	case path == "/v1/map":
		return "map"
	case path == "/v1/task/claim":
		return "claim"
	case path == "/v1/photos", path == "/v1/annotations":
		return "upload"
	case strings.HasSuffix(path, "/heartbeat"):
		return "heartbeat"
	case path == "/v1/status":
		return "status"
	case path == "/v1/workers":
		return "register"
	}
	return ""
}

// failed classifies a response as a failed operation: transport errors
// (status 0), 5xx, 429 sheds, and 422 on locate (a photo the model could
// not localise). Other 4xx answers, such as a claim's 404 "no task", are
// protocol outcomes, not failures.
func failed(endpoint string, status int) bool {
	switch {
	case status == 0, status >= 500, status == http.StatusTooManyRequests:
		return true
	case endpoint == "locate" && status == http.StatusUnprocessableEntity:
		return true
	}
	return false
}

// epStats is one endpoint's wire record.
type epStats struct {
	lat      samples // send to response body closed
	attempts int
	failures int
	sentB    int64
	recvB    int64
}

// wireRecorder collects per-endpoint service times, outcomes and bytes on
// the wire, plus the total time spent waiting on the backend.
type wireRecorder struct {
	mu   sync.Mutex
	eps  map[string]*epStats
	wait time.Duration
}

func newWireRecorder() *wireRecorder { return &wireRecorder{eps: map[string]*epStats{}} }

func (r *wireRecorder) record(ep string, status int, d time.Duration, sent, recv int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.eps[ep]
	if s == nil {
		s = &epStats{}
		r.eps[ep] = s
	}
	s.lat = append(s.lat, d)
	s.attempts++
	if failed(ep, status) {
		s.failures++
	}
	s.sentB += sent
	s.recvB += recv
	r.wait += d
}

// waited returns the total backend wait recorded so far.
func (r *wireRecorder) waited() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wait
}

// get returns a copy of one endpoint's record.
func (r *wireRecorder) get(ep string) epStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.eps[ep]; s != nil {
		out := *s
		out.lat = append(samples(nil), s.lat...)
		return out
	}
	return epStats{}
}

// totals sums attempts and failures over every endpoint.
func (r *wireRecorder) totals() (attempts, failures int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.eps {
		attempts += s.attempts
		failures += s.failures
	}
	return attempts, failures
}

// timedTransport wraps an HTTP transport: every request to a workload
// endpoint is timed from send until its response body is closed,
// classified and counted in rec. Readiness probes and check-only fetches
// (such as /v1/progress) are not workload operations and pass unrecorded;
// a probe refused while the server is still starting is not a failure.
type timedTransport struct {
	base http.RoundTripper
	rec  *wireRecorder
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ep := endpointOf(req.URL.Path)
	if ep == "" {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.record(ep, 0, time.Since(start), req.ContentLength, 0)
		return nil, err
	}
	resp.Body = &timedBody{rc: resp.Body, t: t, ep: ep, status: resp.StatusCode,
		start: start, sent: req.ContentLength}
	return resp, nil
}

// CloseIdleConnections drops pooled connections, so none outlives the
// server process it was opened to.
func (t *timedTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

type timedBody struct {
	rc     io.ReadCloser
	t      *timedTransport
	ep     string
	status int
	start  time.Time
	sent   int64
	n      int64
	once   sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.rc.Close()
	b.once.Do(func() { b.t.rec.record(b.ep, b.status, time.Since(b.start), b.sent, b.n) })
	return err
}

// newHTTPClient returns an HTTP client limited to conns connections, each
// counted in g, whose requests are recorded in rec.
func newHTTPClient(conns int, g *connGauge, rec *wireRecorder) *http.Client {
	var d net.Dialer
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			g.inc()
			return &countedConn{Conn: c, g: g}, nil
		},
	}
	return &http.Client{Transport: &timedTransport{base: tr, rec: rec}}
}
