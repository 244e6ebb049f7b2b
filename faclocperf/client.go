package main

// The client side: loopback faclocd servers hosted in this process, an
// HTTP client with at most two requests in flight, op recording with
// failure classification, and spans.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// daemon is one in-process faclocd: serve.New behind a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	dir    string
	served chan struct{}
}

// panicCounter counts handler panics net/http recovers and logs; the
// benchmark reports them beside the failures they cause.
type panicCounter struct{ n atomic.Int64 }

func (p *panicCounter) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte("panic serving")) {
		p.n.Add(1)
	}
	return len(b), nil
}

// startDaemons brings up n servers, each with its own data directory under
// dir and at most maxInstances instances in memory (0: the server's
// default), and joins them into one ring when n > 1.
func startDaemons(dir string, n, maxInstances int, panics *panicCounter) ([]*daemon, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return nil, fmt.Errorf("listening: %w", err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	ds := make([]*daemon, 0, n)
	for i := range lns {
		d := &daemon{url: urls[i], dir: filepath.Join(dir, fmt.Sprintf("shard%d", i)), served: make(chan struct{})}
		srv, err := serve.New(serve.Config{DataDir: d.dir, MaxInstances: maxInstances})
		if err == nil && n > 1 {
			err = srv.EnableCluster(serve.ClusterConfig{Self: urls[i], Peers: urls})
		}
		if err != nil {
			closeListeners(lns[i:])
			stopDaemons(ds)
			return nil, fmt.Errorf("starting server %d: %w", i, err)
		}
		d.srv = srv
		d.hs = &http.Server{Handler: srv.Handler(), ErrorLog: log.New(panics, "", 0)}
		go func(ln net.Listener) {
			defer close(d.served)
			_ = d.hs.Serve(ln) // returns http.ErrServerClosed on stop
		}(lns[i])
		ds = append(ds, d)
	}
	return ds, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// stopDaemons stops every server, waits for its serve loop to exit, and
// removes its data directory. Connections close first, which cancels any
// request still running (a distributed solve leg can otherwise wait out
// its whole retransmit ladder); the drain then only waits for solves to
// unwind.
func stopDaemons(ds []*daemon) {
	for _, d := range ds {
		d.hs.Close()
		<-d.served
	}
	for _, d := range ds {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = d.srv.Shutdown(ctx) // a drain cut short still cancels and waits for every solve
		cancel()
		os.RemoveAll(d.dir)
	}
}

// newHTTPClient returns a client holding at most conns connections per
// server, so the benchmark never has more requests in flight than that.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// opTimeout bounds one request; a stuck op fails rather than hanging the
// run.
const opTimeout = 60 * time.Second

// response is one completed HTTP exchange. err is a transport error (no
// response) or a body read error (a response cut off mid-stream).
type response struct {
	status int
	body   []byte
	err    error
	read   bool // err happened while reading the body
}

// do sends one request and reads the whole response.
func do(hc *http.Client, method, u string, body []byte) response {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return response{err: err}
	}
	resp, err := hc.Do(req)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return response{status: resp.StatusCode, body: b, err: err, read: err != nil}
}

// failure classifies a response that did not succeed, or returns "" for
// a 2xx response read in full.
func (r response) failure() string {
	switch {
	case r.err != nil && r.read:
		return "stream aborted (" + shortErr(r.err) + ")"
	case r.err != nil:
		return "transport error (" + shortErr(r.err) + ")"
	case r.status < 200 || r.status > 299:
		return fmt.Sprintf("http %d", r.status)
	}
	return ""
}

// shortErr strips the URL (and with it the run's loopback ports) from a
// client error, so equal failures group under one reason.
func shortErr(err error) string {
	var ue *url.Error
	if errors.As(err, &ue) {
		err = ue.Err
	}
	return err.Error()
}

// opRec is one timed operation.
type opRec struct {
	kind      string
	form      string // the instance's wire form, when the op sends one
	ms        float64
	ok        bool
	reason    string  // failure reason, "" when ok
	costRatio float64 // reported cost ÷ lower bound, successful UFL solves only
}

// recorder collects op records from every client goroutine.
type recorder struct {
	mu       sync.Mutex
	ops      []opRec
	lagMS    []float64
	wrong    []string
	examples map[string]string // first error body per failure reason
}

func newRecorder() *recorder { return &recorder{examples: map[string]string{}} }

// add records one op. form qualifies failure reasons with the instance's
// wire form, since the known defects depend on it.
func (rc *recorder) add(kind, form string, ms float64, r response, err error, costRatio float64) bool {
	rec := opRec{kind: kind, form: form, ms: ms, ok: true, costRatio: costRatio}
	reason := r.failure()
	if reason == "" && err != nil {
		reason = err.Error()
		var wa *wrongAnswer
		if errors.As(err, &wa) {
			rc.mu.Lock()
			rc.wrong = append(rc.wrong, kind+": "+wa.msg)
			rc.mu.Unlock()
			reason = "wrong answer"
		}
	}
	if reason != "" {
		rec.ok, rec.costRatio = false, 0
		if form != "" {
			kind += "/" + form
		}
		rec.reason = kind + ": " + reason
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.ops = append(rc.ops, rec)
	if rec.reason != "" {
		if _, seen := rc.examples[rec.reason]; !seen {
			msg := strings.TrimSpace(string(r.body))
			if err != nil {
				msg = err.Error()
			} else if r.err != nil {
				msg = r.err.Error()
			}
			if len(msg) > 300 {
				msg = msg[:300] + "…"
			}
			rc.examples[rec.reason] = msg
		}
	}
	return rec.ok
}

func (rc *recorder) lag(ms float64) {
	rc.mu.Lock()
	rc.lagMS = append(rc.lagMS, ms)
	rc.mu.Unlock()
}

// span is one traced interval: a layer boundary the benchmark crossed.
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Trace  uint64  `json:"trace"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the run began
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing; its spans still time their interval.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
	// busy is time the clients spent on tracing work (layer passes and span
	// bookkeeping) rather than on requests.
	busy atomic.Int64
}

// sp is an open span.
type sp struct {
	t              *tracer
	id, parent, tr uint64
	name           string
	start          time.Time
}

// root opens a span that starts a new trace.
func (t *tracer) root(name string) sp {
	s := sp{t: t, name: name, start: time.Now()}
	if t != nil {
		s.id = t.next.Add(1)
		s.tr = s.id
	}
	return s
}

// child opens a span under s.
func (s sp) child(name string) sp {
	c := sp{t: s.t, parent: s.id, tr: s.tr, name: name, start: time.Now()}
	if s.t != nil {
		c.id = s.t.next.Add(1)
	}
	return c
}

// end closes the span and returns its duration in milliseconds.
func (s sp) end() float64 {
	now := time.Now()
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, span{
			ID: s.id, Parent: s.parent, Trace: s.tr, Name: s.name,
			Start: ms(s.start.Sub(s.t.t0)), End: ms(now.Sub(s.t.t0)),
		})
		s.t.mu.Unlock()
	}
	return ms(now.Sub(s.start))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durations groups span durations by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start)
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	kids := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := 0.0, s.Start
		for _, c := range cs {
			lo, hi := maxf(c.Start, reach), minf(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
