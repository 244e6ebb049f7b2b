package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	facloc "repro"
	"repro/internal/core"
	"repro/internal/par"
)

// blockingSolver parks until its context is cancelled — the harness for
// lifecycle tests. It registers once per test binary.
type blockingSolver struct{ started chan struct{} }

var blockSolver = &blockingSolver{started: make(chan struct{}, 64)}
var registerBlockOnce sync.Once

func (b *blockingSolver) Name() string                { return "serve-test-block" }
func (b *blockingSolver) Guarantee() facloc.Guarantee { return facloc.Guarantee{Factor: 1} }
func (b *blockingSolver) Solve(ctx context.Context, pc *par.Ctx, in *core.Instance, opts facloc.Options) (*facloc.Solution, error) {
	select {
	case b.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

func registerBlockingSolver() { registerBlockOnce.Do(func() { facloc.Register(blockSolver) }) }

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func submitInstance(t *testing.T, url string, in *facloc.Instance) string {
	t.Helper()
	var buf bytes.Buffer
	if err := facloc.WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/instances", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var meta instanceMeta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if meta.Hash == "" {
		t.Fatalf("instance submission returned no hash (status %d)", resp.StatusCode)
	}
	return meta.Hash
}

// TestSolveCacheBitwiseIdentical is the acceptance criterion: the same
// (instance, solver, Options, seed) submitted twice hits the cache and the
// second response's report is byte-identical to the first — and both match
// an in-process registry solve with the same canonical options.
func TestSolveCacheBitwiseIdentical(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	in := facloc.GenerateUniform(41, 8, 40, 1, 6)
	hash := submitInstance(t, ts.URL, in)

	req := SolveRequest{Hash: hash, Solver: "greedy-par", Seed: 7}
	code1, body1 := postJSON(t, ts.URL+"/solve", req)
	if code1 != http.StatusOK {
		t.Fatalf("first solve: %d %s", code1, body1)
	}
	// A spelled-out-differently but canonically identical request: explicit
	// default eps, worker cap, tracked cost — none can change the solution.
	req2 := SolveRequest{Hash: hash, Solver: "greedy-par", Seed: 7, Epsilon: 0.3, Workers: 2}
	code2, body2 := postJSON(t, ts.URL+"/solve", req2)
	if code2 != http.StatusOK {
		t.Fatalf("second solve: %d %s", code2, body2)
	}

	var r1, r2 solveResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Cached || !r2.Cached {
		t.Fatalf("cached flags (%v, %v), want (false, true)", r1.Cached, r2.Cached)
	}
	if r1.ID != r2.ID {
		t.Fatalf("solution ids differ: %s vs %s", r1.ID, r2.ID)
	}
	if !bytes.Equal(r1.Report, r2.Report) {
		t.Fatalf("cache hit report not byte-identical:\n%s\nvs\n%s", r1.Report, r2.Report)
	}
	if hits, misses := srv.met.cacheHits.Load(), srv.met.cacheMisses.Load(); hits != 1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", hits, misses)
	}

	// The served solution is the registry's own, bit for bit.
	direct, err := facloc.Solve(context.Background(), "greedy-par", in, facloc.Options{Seed: 7}.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	var view reportView
	if err := json.Unmarshal(r1.Report, &view); err != nil {
		t.Fatal(err)
	}
	if view.Cost != direct.Solution.Cost() ||
		view.FacilityCost != direct.Solution.FacilityCost ||
		view.ConnectionCost != direct.Solution.ConnectionCost ||
		fmt.Sprint(view.Open) != fmt.Sprint(direct.Solution.Open) {
		t.Fatalf("served report diverges from the in-process solve:\n%s\nvs %+v", r1.Report, direct.Solution)
	}

	// GET /solutions/{id} replays the same bytes.
	resp, err := http.Get(ts.URL + "/solutions/" + r1.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r3 solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&r3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Report, r3.Report) {
		t.Fatal("GET /solutions report differs from the solve response")
	}
}

// TestSolveDistinctKeysMiss: changing any cache-key component re-solves.
func TestSolveDistinctKeysMiss(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	hash := submitInstance(t, ts.URL, facloc.GenerateUniform(42, 6, 30, 1, 6))
	for i, req := range []SolveRequest{
		{Hash: hash, Solver: "greedy-par", Seed: 7},
		{Hash: hash, Solver: "greedy-par", Seed: 8},               // seed
		{Hash: hash, Solver: "pd-par", Seed: 7},                   // solver
		{Hash: hash, Solver: "greedy-par", Seed: 7, Epsilon: 0.5}, // eps
	} {
		if code, body := postJSON(t, ts.URL+"/solve", req); code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, code, body)
		}
	}
	if hits, misses := srv.met.cacheHits.Load(), srv.met.cacheMisses.Load(); hits != 0 || misses != 4 {
		t.Fatalf("hits/misses = %d/%d, want 0/4", hits, misses)
	}
}

// TestCoresetRouting: a lazy instance past the request's dense limit runs
// the -coreset companion instead of failing or materializing.
func TestCoresetRouting(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hash := submitInstance(t, ts.URL, facloc.GenerateHugeUFL(5, 10, 60))

	code, body := postJSON(t, ts.URL+"/solve",
		SolveRequest{Hash: hash, Solver: "greedy-par", Seed: 1, DenseLimit: 20})
	if code != http.StatusOK {
		t.Fatalf("routed solve: %d %s", code, body)
	}
	var r solveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	var view reportView
	if err := json.Unmarshal(r.Report, &view); err != nil {
		t.Fatal(err)
	}
	if view.Solver != "greedy-coreset" {
		t.Fatalf("solver %q, want greedy-coreset", view.Solver)
	}

	// Under the default limit the same request runs the dense path…
	code, body = postJSON(t, ts.URL+"/solve", SolveRequest{Hash: hash, Solver: "greedy-par", Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("dense solve: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(r.Report, &view); err != nil {
		t.Fatal(err)
	}
	if view.Solver != "greedy-par" {
		t.Fatalf("solver %q, want greedy-par", view.Solver)
	}

	// …and a solver with no coreset companion reports the situation.
	code, body = postJSON(t, ts.URL+"/solve",
		SolveRequest{Hash: hash, Solver: "local-search", Seed: 1, DenseLimit: 20})
	if code != http.StatusBadRequest || !strings.Contains(string(body), "coreset") {
		t.Fatalf("companion-less routing: %d %s", code, body)
	}
}

// TestServeDrainCancelsQueuedLeaksNothing is the lifecycle satellite: with
// one solve mid-flight and more queued, Shutdown fails the queued work
// immediately, hard-cancels the in-flight solve when the drain budget
// expires (an error, never a partial solution), and leaks no goroutines.
func TestServeDrainCancelsQueuedLeaksNothing(t *testing.T) {
	registerBlockingSolver()
	// The par scheduler's workers are a process-wide singleton, not a leak:
	// pre-spawn them so the baseline counts them (mirrors the Batch test).
	par.Warm(runtime.GOMAXPROCS(0) + 4)
	before := runtime.NumGoroutine()

	srv, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 8})
	in := facloc.GenerateUniform(1, 3, 6, 1, 6)
	hash := submitInstance(t, ts.URL, in)

	type result struct {
		code int
		body string
	}
	results := make(chan result, 3)
	solveReq := func(seed int64) {
		code, body := postJSON(t, ts.URL+"/solve",
			SolveRequest{Hash: hash, Solver: "serve-test-block", Seed: seed})
		results <- result{code, string(body)}
	}
	go solveReq(1)
	select {
	case <-blockSolver.started:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight solve never started")
	}
	go solveReq(2)
	go solveReq(3)
	waitFor(t, "queued requests", func() bool { return len(srv.queue) == 3 })

	shCtx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(shCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown over a parked solve returned %v, want DeadlineExceeded", err)
	}

	errors503, errors5xx := 0, 0
	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			if r.code == http.StatusOK {
				t.Fatalf("a drained request produced a solution: %s", r.body)
			}
			if !strings.Contains(r.body, "error") {
				t.Fatalf("drained request %d has no error body: %s", r.code, r.body)
			}
			if r.code == http.StatusServiceUnavailable {
				errors503++
			} else {
				errors5xx++
			}
		case <-time.After(5 * time.Second):
			t.Fatal("drained request never returned")
		}
	}
	if errors503+errors5xx != 3 {
		t.Fatalf("%d + %d responses", errors503, errors5xx)
	}
	if srv.Inflight() != 0 {
		t.Fatalf("%d solves still in flight after drain", srv.Inflight())
	}

	// New work is refused while draining.
	if code, _ := postJSON(t, ts.URL+"/solve",
		SolveRequest{Hash: hash, Solver: "serve-test-block", Seed: 9}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain solve admitted with %d", code)
	}

	ts.Close()
	waitFor(t, "goroutines to settle", func() bool {
		return runtime.NumGoroutine() <= before+2
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSolveDeadlineReturnsErrorNotPartial: an expired per-request deadline
// produces 504 with an error body — never a partial solution.
func TestSolveDeadlineReturnsErrorNotPartial(t *testing.T) {
	registerBlockingSolver()
	srv, ts := newTestServer(t, Config{})
	hash := submitInstance(t, ts.URL, facloc.GenerateUniform(2, 3, 6, 1, 6))

	code, body := postJSON(t, ts.URL+"/solve",
		SolveRequest{Hash: hash, Solver: "serve-test-block", Seed: 1, TimeoutMS: 40})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired solve returned %d %s, want 504", code, body)
	}
	if bytes.Contains(body, []byte("report")) || bytes.Contains(body, []byte("open")) {
		t.Fatalf("expired solve leaked solution state: %s", body)
	}
	if srv.met.solveErrors.Load() != 1 {
		t.Fatalf("solve_errors = %d, want 1", srv.met.solveErrors.Load())
	}
	if srv.st.numSolutions() != 0 {
		t.Fatal("an errored solve was cached")
	}
}

// TestAdmissionQueueFull: requests beyond inflight+queue are rejected
// immediately with 503, not parked.
func TestAdmissionQueueFull(t *testing.T) {
	registerBlockingSolver()
	srv, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1})
	hash := submitInstance(t, ts.URL, facloc.GenerateUniform(3, 3, 6, 1, 6))

	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func(seed int64) {
			postJSON(t, ts.URL+"/solve", SolveRequest{Hash: hash, Solver: "serve-test-block", Seed: seed})
			done <- struct{}{}
		}(int64(i))
	}
	select {
	case <-blockSolver.started:
	case <-time.After(5 * time.Second):
		t.Fatal("solve never started")
	}
	waitFor(t, "queue to fill", func() bool { return len(srv.queue) == 2 })

	code, body := postJSON(t, ts.URL+"/solve",
		SolveRequest{Hash: hash, Solver: "serve-test-block", Seed: 9})
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "queue") {
		t.Fatalf("overflow request: %d %s, want 503 queue-full", code, body)
	}
	if srv.met.rejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}

	shCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = srv.Shutdown(shCtx)
	<-done
	<-done
}

// TestBatchEndpointMatchesLocalAndCaches: the /batch stream is
// byte-identical to a local WriteBatch run with the same parameters, and a
// repeated submission is served from the cache.
func TestBatchEndpointMatchesLocalAndCaches(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	var workload bytes.Buffer
	for i := 0; i < 6; i++ {
		if err := facloc.WriteInstance(&workload, facloc.GenerateUniform(int64(50+i), 5, 12, 1, 6)); err != nil {
			t.Fatal(err)
		}
	}

	solver, _ := facloc.Lookup("pd-par")
	var local bytes.Buffer
	b := facloc.NewBatch(solver, facloc.BatchOptions{
		Jobs: 4, MasterSeed: 7, Base: facloc.Options{TrackCost: true},
	})
	if _, _, err := WriteBatch(context.Background(), b,
		facloc.NewInstanceStream(bytes.NewReader(workload.Bytes())), &local); err != nil {
		t.Fatal(err)
	}

	post := func() []byte {
		resp, err := http.Post(ts.URL+"/batch?solver=pd-par&seed=7&jobs=4", "application/x-ndjson",
			bytes.NewReader(workload.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: %d %s", resp.StatusCode, out)
		}
		return out
	}
	remote1 := post()
	if !bytes.Equal(local.Bytes(), remote1) {
		t.Fatalf("remote batch differs from local:\n%s\nvs\n%s", remote1, local.Bytes())
	}
	if srv.met.cacheMisses.Load() != 6 {
		t.Fatalf("misses = %d, want 6", srv.met.cacheMisses.Load())
	}
	remote2 := post()
	if !bytes.Equal(remote1, remote2) {
		t.Fatal("repeated batch differs")
	}
	if srv.met.cacheHits.Load() != 6 {
		t.Fatalf("hits = %d, want 6", srv.met.cacheHits.Load())
	}
}

// TestCacheHitBypassesAdmission: a cached solve is an O(1) replay and must
// be served even when the solve queue is saturated.
func TestCacheHitBypassesAdmission(t *testing.T) {
	registerBlockingSolver()
	srv, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1})
	hash := submitInstance(t, ts.URL, facloc.GenerateUniform(8, 5, 15, 1, 6))

	// Warm the cache while the queue is empty.
	if code, body := postJSON(t, ts.URL+"/solve",
		SolveRequest{Hash: hash, Solver: "pd-par", Seed: 4}); code != http.StatusOK {
		t.Fatalf("warmup solve: %d %s", code, body)
	}

	// Saturate: one blocking solve in flight, one queued.
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func(seed int64) {
			postJSON(t, ts.URL+"/solve", SolveRequest{Hash: hash, Solver: "serve-test-block", Seed: seed})
			done <- struct{}{}
		}(int64(100 + i))
	}
	select {
	case <-blockSolver.started:
	case <-time.After(5 * time.Second):
		t.Fatal("blocking solve never started")
	}
	waitFor(t, "queue to fill", func() bool { return len(srv.queue) == 2 })

	// A fresh solve is rejected, but the cached one replays.
	if code, _ := postJSON(t, ts.URL+"/solve",
		SolveRequest{Hash: hash, Solver: "pd-par", Seed: 5}); code != http.StatusServiceUnavailable {
		t.Fatalf("fresh solve under saturation: %d, want 503", code)
	}
	code, body := postJSON(t, ts.URL+"/solve", SolveRequest{Hash: hash, Solver: "pd-par", Seed: 4})
	if code != http.StatusOK || !strings.Contains(string(body), `"cached":true`) {
		t.Fatalf("cached solve under saturation: %d %s", code, body)
	}

	shCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = srv.Shutdown(shCtx)
	<-done
	<-done
}

// TestNearestRejectsNonFiniteCoordinates: "NaN"/"Inf" parse as floats but
// are not points in the space; they must 400, not produce an empty 200.
func TestNearestRejectsNonFiniteCoordinates(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hash := submitInstance(t, ts.URL, facloc.GenerateHugeUFL(6, 6, 30))
	code, body := postJSON(t, ts.URL+"/solve", SolveRequest{Hash: hash, Solver: "greedy-par", Seed: 2})
	if code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, body)
	}
	var r solveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	for _, x := range []string{"NaN,NaN", "Inf,0", "1,-Inf"} {
		resp, err := http.Get(ts.URL + "/solutions/" + r.ID + "/nearest?x=" + x)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), "non-finite") {
			t.Fatalf("x=%s: %d %s, want 400 non-finite", x, resp.StatusCode, out)
		}
	}
	// The bulk path rejects them per line without killing the stream.
	resp, err := http.Post(ts.URL+"/solutions/"+r.ID+"/query", "application/x-ndjson",
		strings.NewReader("{\"x\":[1e999,0]}\n{\"client\":0}\n"))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) != 2 || !bytes.Contains(lines[0], []byte("error")) || !bytes.Contains(lines[1], []byte("facility")) {
		t.Fatalf("bulk non-finite handling:\n%s", out)
	}

	// A body far past the first flush still gets exactly one answer per
	// line: the stream must not be cut off once answers start going out.
	const n = 1000
	var bulk strings.Builder
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&bulk, "{\"client\":%d}\n", i%30)
		} else {
			fmt.Fprintf(&bulk, "{\"x\":[%d.5,%d.25]}\n", i%7, i%5)
		}
	}
	resp, err = http.Post(ts.URL+"/solutions/"+r.ID+"/query", "application/x-ndjson", strings.NewReader(bulk.String()))
	if err != nil {
		t.Fatal(err)
	}
	out, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("bulk query stream of %d lines: %v", n, err)
	}
	lines = bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) != n {
		t.Fatalf("bulk query stream: %d answers for %d lines", len(lines), n)
	}
	for i, l := range lines {
		if !bytes.Contains(l, []byte("facility")) || bytes.Contains(l, []byte("error")) {
			t.Fatalf("bulk answer %d: %s", i, l)
		}
	}
}

// TestQueryStreamAbortsOnOversizedLine: a line past the scanner cap must
// abort the connection, not end the stream as if complete.
func TestQueryStreamAbortsOnOversizedLine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hash := submitInstance(t, ts.URL, facloc.GenerateUniform(12, 4, 10, 1, 6))
	code, body := postJSON(t, ts.URL+"/solve", SolveRequest{Hash: hash, Solver: "pd-par", Seed: 1})
	if code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, body)
	}
	var r solveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	huge := "{\"client\":0,\"pad\":\"" + strings.Repeat("x", 2<<20) + "\"}\n"
	resp, err := http.Post(ts.URL+"/solutions/"+r.ID+"/query", "application/x-ndjson", strings.NewReader(huge))
	if err != nil {
		return // connection aborted before response headers: correct
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err == nil && resp.StatusCode == http.StatusOK {
		t.Fatal("oversized query line produced a clean 200 stream")
	}
}

// TestMetricsEndpoint spot-checks the exposition format the CI smoke job
// greps.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hash := submitInstance(t, ts.URL, facloc.GenerateUniform(9, 5, 20, 1, 6))
	postJSON(t, ts.URL+"/solve", SolveRequest{Hash: hash, Solver: "pd-par", Seed: 3})
	postJSON(t, ts.URL+"/solve", SolveRequest{Hash: hash, Solver: "pd-par", Seed: 3})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"faclocd_instances_stored 1",
		"faclocd_cache_hits 1",
		"faclocd_cache_misses 1",
		"faclocd_solves_total 1",
		"faclocd_solves_inflight 0",
		"faclocd_draining 0",
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestInstanceStoreContentAddressing: resubmission is a no-op returning the
// same hash; unknown hashes 404.
func TestInstanceStoreContentAddressing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := facloc.GenerateUniform(77, 4, 10, 1, 6)
	h1 := submitInstance(t, ts.URL, in)
	h2 := submitInstance(t, ts.URL, in)
	if h1 != h2 {
		t.Fatalf("resubmission moved the address: %s -> %s", h1, h2)
	}
	want, err := facloc.InstanceHash(in)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != want {
		t.Fatalf("server hash %s, library hash %s", h1, want)
	}

	code, body := postJSON(t, ts.URL+"/solve",
		SolveRequest{Hash: strings.Repeat("0", 64), Solver: "pd-par"})
	if code != http.StatusNotFound {
		t.Fatalf("unknown hash: %d %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/instances/" + h1)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /instances/{hash}: %d", resp.StatusCode)
	}
}

// TestQueryEndpoints drives assign/nearest/bulk over HTTP against a lazy
// instance.
func TestQueryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := facloc.GenerateHugeUFL(4, 8, 50)
	hash := submitInstance(t, ts.URL, in)
	code, body := postJSON(t, ts.URL+"/solve", SolveRequest{Hash: hash, Solver: "greedy-par", Seed: 5})
	if code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, body)
	}
	var r solveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/solutions/" + r.ID + "/assign?client=3")
	if err != nil {
		t.Fatal(err)
	}
	var ans queryAnswer
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ans.Client == nil || *ans.Client != 3 || ans.Distance < 0 {
		t.Fatalf("assign answer %+v", ans)
	}

	resp, err = http.Get(ts.URL + "/solutions/" + r.ID + "/nearest?x=100,250")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ans.Distance < 0 {
		t.Fatalf("nearest answer %+v", ans)
	}

	bulk := "{\"client\":0}\n{\"x\":[10,20]}\n{\"bogus\":1}\n"
	resp, err = http.Post(ts.URL+"/solutions/"+r.ID+"/query", "application/x-ndjson", strings.NewReader(bulk))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("%d bulk answers, want 3:\n%s", len(lines), out)
	}
	if !bytes.Contains(lines[2], []byte("error")) {
		t.Fatalf("malformed query not reported: %s", lines[2])
	}
}
