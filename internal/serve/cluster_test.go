package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	facloc "repro"
	"repro/internal/core"
)

// testCluster is n faclocd servers over real httptest listeners, joined into
// one ring. Health probing is disabled so tests drive liveness themselves.
type testCluster struct {
	srvs []*Server
	ts   []*httptest.Server
	urls []string
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		srv, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		tc.srvs = append(tc.srvs, srv)
		tc.ts = append(tc.ts, ts)
		tc.urls = append(tc.urls, ts.URL)
	}
	for i, srv := range tc.srvs {
		err := srv.EnableCluster(ClusterConfig{
			Self:           tc.urls[i],
			Peers:          tc.urls,
			HealthInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return tc
}

// ownerIndex returns which server owns key (all rings agree).
func (tc *testCluster) ownerIndex(t *testing.T, key string) int {
	t.Helper()
	m, ok := tc.srvs[0].cl.ring.Owner(key)
	if !ok {
		t.Fatalf("no owner for %s", key)
	}
	for i, u := range tc.urls {
		if u == m.ID {
			return i
		}
	}
	t.Fatalf("owner %s not among the test servers", m.ID)
	return -1
}

func TestClusterSolveForwardedByHash(t *testing.T) {
	tc := newTestCluster(t, 3)
	in := facloc.GenerateUniform(61, 8, 40, 1, 6)
	hash := submitInstance(t, tc.urls[0], in)
	owner := tc.ownerIndex(t, hash)

	// Every entry point answers a hash-only solve, including nodes that never
	// saw the instance: non-owners forward to the owner (who got the instance
	// replicated on submission), and every response carries identical bytes.
	req := SolveRequest{Hash: hash, Solver: "greedy-par", Seed: 7}
	var first []byte
	for i := range tc.urls {
		code, body := postJSON(t, tc.urls[i]+"/solve", req)
		if code != http.StatusOK {
			t.Fatalf("solve via node %d: %d %s", i, code, body)
		}
		var r solveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = r.Report
		} else if !bytes.Equal(first, r.Report) {
			t.Fatalf("node %d served different report bytes:\n%s\nvs\n%s", i, r.Report, first)
		}
	}
	// The owner solved it exactly once; everyone else forwarded or replayed.
	if got := tc.srvs[owner].met.solvesTotal.Load(); got != 1 {
		t.Fatalf("owner ran %d solves, want 1", got)
	}
	for i, srv := range tc.srvs {
		if i != owner && srv.met.solvesTotal.Load() != 0 {
			t.Fatalf("non-owner node %d solved locally", i)
		}
	}
	var forwards int64
	for i, srv := range tc.srvs {
		if i != owner {
			forwards += srv.cl.forwarded.Load()
		}
	}
	if forwards == 0 {
		t.Fatal("no request was forwarded to the owner")
	}
}

func TestClusterReplicatesSolutions(t *testing.T) {
	tc := newTestCluster(t, 3)
	in := facloc.GenerateUniform(62, 8, 40, 1, 6)
	hash := submitInstance(t, tc.urls[0], in)
	owner := tc.ownerIndex(t, hash)

	code, body := postJSON(t, tc.urls[owner]+"/solve", SolveRequest{Hash: hash, Solver: "pd-par", Seed: 3})
	if code != http.StatusOK {
		t.Fatalf("solve: %d %s", code, body)
	}
	var r solveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}

	// The entry was pushed to the owner and its successor: at least two of
	// the three daemons replay it from cache, byte-identically, without
	// forwarding (GET /solutions is local-only).
	holders := 0
	for i := range tc.urls {
		resp, err := http.Get(tc.urls[i] + "/solutions/" + r.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got solveResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Report, r.Report) {
			t.Fatalf("replica on node %d serves different bytes:\n%s\nvs\n%s", i, got.Report, r.Report)
		}
		holders++
	}
	if holders < 2 {
		t.Fatalf("solution held by %d nodes, want >= 2 (owner + replica)", holders)
	}
	if got := tc.srvs[owner].cl.replicated.Load(); got != 1 {
		t.Fatalf("owner replicated %d entries, want 1", got)
	}

	// Replicas with the instance at hand also serve the query path.
	for i := range tc.urls {
		resp, err := http.Get(tc.urls[i] + "/solutions/" + r.ID + "/assign?client=0")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if i == owner && resp.StatusCode != http.StatusOK {
			t.Fatalf("owner refuses assign: %d", resp.StatusCode)
		}
	}
}

func TestClusterRingEndpoint(t *testing.T) {
	tc := newTestCluster(t, 3)
	for i := range tc.urls {
		resp, err := http.Get(tc.urls[i] + "/cluster/ring")
		if err != nil {
			t.Fatal(err)
		}
		var view ringView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("ring via node %d: %d %v", i, resp.StatusCode, err)
		}
		if view.Self != tc.urls[i] {
			t.Fatalf("node %d reports self %s", i, view.Self)
		}
		if len(view.Members) != 3 {
			t.Fatalf("ring has %d members, want 3", len(view.Members))
		}
		for _, m := range view.Members {
			if !m.Alive {
				t.Fatalf("member %s not alive at startup", m.ID)
			}
		}
	}

	// A single-node daemon 404s — that is how faclocsolve tells the two apart.
	_, single := newTestServer(t, Config{})
	resp, err := http.Get(single.URL + "/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unclustered ring endpoint: %d, want 404", resp.StatusCode)
	}
}

// TestClusterDistributedSolveBitwiseMatchesLocal is the serve-layer
// conformance check: "pd-dist" on a real 3-daemon HTTP cluster returns the
// same solution — to the last float64 bit — as pd-par and as the in-process
// pd-dist solver run locally, for a dense instance and for a point-form one.
// The point-form solution still answers coordinate queries, and a point-form
// instance past a shard's dense limit is a 4xx, not a crash.
func TestClusterDistributedSolveBitwiseMatchesLocal(t *testing.T) {
	tc := newTestCluster(t, 3)
	instances := []struct {
		name string
		in   *facloc.Instance
	}{
		{"dense", facloc.GenerateUniform(63, 10, 50, 1, 6)},
		{"points", facloc.GenerateHugeUFL(63, 10, 50)},
	}
	for legs, inst := range instances {
		in := inst.in
		hash := submitInstance(t, tc.urls[0], in)
		owner := tc.ownerIndex(t, hash)

		code, body := postJSON(t, tc.urls[owner]+"/solve", SolveRequest{Hash: hash, Solver: DistSolverName, Seed: 5, Epsilon: 0.2})
		if code != http.StatusOK {
			t.Fatalf("%s: distributed solve: %d %s", inst.name, code, body)
		}
		var r solveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		var view reportView
		if err := json.Unmarshal(r.Report, &view); err != nil {
			t.Fatal(err)
		}

		for _, name := range []string{"pd-par", DistSolverName} {
			direct, err := facloc.Solve(t.Context(), name, in, facloc.Options{Seed: 5, Epsilon: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(view.FacilityCost) != math.Float64bits(direct.Solution.FacilityCost) ||
				math.Float64bits(view.ConnectionCost) != math.Float64bits(direct.Solution.ConnectionCost) ||
				fmt.Sprint(view.Open) != fmt.Sprint(direct.Solution.Open) {
				t.Fatalf("%s: HTTP distributed solve diverges from local %s:\n%s\nvs %+v", inst.name, name, r.Report, direct.Solution)
			}
		}

		// Every shard ran exactly one distributed leg per instance.
		for i, srv := range tc.srvs {
			if got := srv.cl.distSolves.Load(); got != int64(legs+1) {
				t.Fatalf("%s: node %d ran %d distributed legs, want %d", inst.name, i, got, legs+1)
			}
			if srv.cl.framesIn.Load() == 0 && len(tc.srvs) > 1 {
				t.Fatalf("%s: node %d saw no frames — the solve was not distributed", inst.name, i)
			}
		}
		if in.Points == nil {
			continue
		}
		resp, err := http.Get(tc.urls[owner] + "/solutions/" + r.ID + "/nearest?x=100,250")
		if err != nil {
			t.Fatal(err)
		}
		var ans queryAnswer
		err = json.NewDecoder(resp.Body).Decode(&ans)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || ans.Distance < 0 {
			t.Fatalf("nearest on a point-form pd-dist solution: %d %+v %v", resp.StatusCode, ans, err)
		}
	}

	// Past the dense limit a shard's leg refuses the instance with a 4xx.
	var buf bytes.Buffer
	if err := facloc.WriteInstance(&buf, facloc.GenerateHugeUFL(64, 2, core.DenseLimit+1)); err != nil {
		t.Fatal(err)
	}
	code, body := postJSON(t, tc.urls[0]+"/cluster/solve", distSolveRequest{SolveID: 7, Seed: 5, Instance: buf.Bytes()})
	if code < 400 || code >= 500 {
		t.Fatalf("pd-dist leg past the dense limit: %d %s, want 4xx", code, body)
	}
}

// TestClusterHealsAroundDeadShard kills the shard owning an instance and
// checks the cluster routes around it: the forward fails, the receiving
// shard marks it dead (heals the ring) and serves the request itself.
func TestClusterHealsAroundDeadShard(t *testing.T) {
	tc := newTestCluster(t, 3)
	in := facloc.GenerateUniform(64, 8, 40, 1, 6)
	// Submitted on every node (content addressing makes this idempotent), so
	// survivors can serve it when the owner dies mid-cluster.
	var hash string
	for _, u := range tc.urls {
		hash = submitInstance(t, u, in)
	}
	owner := tc.ownerIndex(t, hash)
	alive := (owner + 1) % 3

	tc.ts[owner].Close()

	code, body := postJSON(t, tc.urls[alive]+"/solve", SolveRequest{Hash: hash, Solver: "greedy-par", Seed: 9})
	if code != http.StatusOK {
		t.Fatalf("solve after owner death: %d %s", code, body)
	}
	if got := tc.srvs[alive].met.solvesTotal.Load(); got != 1 {
		t.Fatalf("surviving node ran %d solves, want 1 (served locally)", got)
	}

	// The failed forward healed the ring: the dead shard is marked not alive.
	resp, err := http.Get(tc.urls[alive] + "/cluster/ring")
	if err != nil {
		t.Fatal(err)
	}
	var view ringView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range view.Members {
		if m.ID == tc.urls[owner] && m.Alive {
			t.Fatal("dead shard still marked alive after a failed forward")
		}
		if m.ID == tc.urls[alive] && !m.Alive {
			t.Fatal("surviving shard marked dead")
		}
	}

	// New work now routes to live successors only: a fresh instance owned by
	// the dead shard is still solvable everywhere.
	in2 := facloc.GenerateUniform(65, 8, 40, 1, 6)
	hash2 := submitInstance(t, tc.urls[alive], in2)
	code, body = postJSON(t, tc.urls[alive]+"/solve", SolveRequest{Hash: hash2, Solver: "greedy-par", Seed: 9})
	if code != http.StatusOK {
		t.Fatalf("solve with a dead ring member: %d %s", code, body)
	}
}

func TestClusterMetricsExposed(t *testing.T) {
	tc := newTestCluster(t, 2)
	resp, err := http.Get(tc.urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err := readCapped(resp.Body, 1<<20)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"faclocd_cluster_peers 2",
		"faclocd_cluster_peers_alive 2",
		"faclocd_cluster_replicated_total",
		"faclocd_cluster_frames_in_total",
		"faclocd_cluster_dist_solves_total",
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("metrics missing %q:\n%s", want, b)
		}
	}

	// Unclustered daemons emit no cluster lines at all.
	_, single := newTestServer(t, Config{})
	resp, err = http.Get(single.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err = readCapped(resp.Body, 1<<20)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "faclocd_cluster_") {
		t.Fatalf("single-node daemon leaks cluster metrics:\n%s", b)
	}
}

func TestEnableClusterValidation(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableCluster(ClusterConfig{Self: "a", Peers: nil}); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if err := srv.EnableCluster(ClusterConfig{Self: "c", Peers: []string{"a", "b"}}); err == nil {
		t.Fatal("self outside the peer list accepted")
	}
	if err := srv.EnableCluster(ClusterConfig{Self: "a", Peers: []string{"a", "b"}, HealthInterval: -1}); err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableCluster(ClusterConfig{Self: "a", Peers: []string{"a", "b"}, HealthInterval: -1}); err == nil {
		t.Fatal("double EnableCluster accepted")
	}
}
