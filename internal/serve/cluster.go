package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	facloc "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/primaldual"
	"repro/internal/resilience"
)

// forwardedHeader loop-guards request forwarding: a forwarded request is
// served where it lands, even if the ring has shifted meanwhile — one hop,
// never a routing loop.
const forwardedHeader = "X-Facloc-Forwarded"

// DistSolverName is the solver name the cluster intercepts: on a clustered
// daemon a /solve naming it runs the genuinely distributed primal-dual
// (every shard a faclocd process, frames over HTTP); on a single-node daemon
// it falls through to the registry's virtual-cluster implementation. Both
// produce bitwise-identical solutions.
const DistSolverName = "pd-dist"

// ClusterConfig wires a Server into a faclocd shard ring.
type ClusterConfig struct {
	// Self is this daemon's advertised address; it must appear in Peers.
	Self string
	// Peers is the full member list (including Self), identical on every
	// daemon — member identity is the address string, so the ring is the
	// same everywhere without coordination.
	Peers []string
	// Replicas is how many shards hold each solution entry: the owner plus
	// Replicas-1 ring successors (0 = 2).
	Replicas int
	// Timeout/Retries shape the frame NACK and put-ack ladders
	// (0 = cluster defaults).
	Timeout time.Duration
	Retries int
	// HealthInterval is the peer liveness probe period (0 = 2s; negative
	// disables the loop — tests drive SetAlive directly).
	HealthInterval time.Duration
	// Client performs peer HTTP calls. Nil builds a client with dial/TLS
	// limits only — NO overall request timeout: per-attempt timeouts come
	// from the resilience budget, so a long-budget request is never cut
	// off mid-stream by a transport-level constant.
	Client *http.Client
	// Resilience tunes peer-call policy: per-attempt caps, deterministic
	// backoff, and the per-peer circuit breakers (zero value = defaults;
	// the backoff seed defaults to a hash of Self so each daemon jitters
	// on its own deterministic stream).
	Resilience resilience.Policy
	// ReplicationBudget bounds background replication work when the
	// triggering request carries no deadline of its own (0 = 5s).
	ReplicationBudget time.Duration
}

func (c ClusterConfig) replicationBudget() time.Duration {
	if c.ReplicationBudget > 0 {
		return c.ReplicationBudget
	}
	return 5 * time.Second
}

func (c ClusterConfig) replicas() int {
	if c.Replicas > 0 {
		return c.Replicas
	}
	return 2
}

// A daemon's frame timeout defaults shorter than the library's. The timer
// only paces loss recovery — a peer that registers its solve leg late costs
// nothing, because the node buffers early frames per solve — so a lost frame
// is re-requested after 500ms, and the larger retry budget keeps the total
// loud-failure horizon at 5s.
func (c ClusterConfig) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 500 * time.Millisecond
}

func (c ClusterConfig) retries() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 10
}

func (c ClusterConfig) healthInterval() time.Duration {
	if c.HealthInterval == 0 {
		return 2 * time.Second
	}
	return c.HealthInterval
}

// clusterState is the Server's shard-ring brain: ring + node + transport,
// the health loop, and the cluster metrics.
type clusterState struct {
	cfg    ClusterConfig
	selfID string
	ring   *cluster.Ring
	tr     *cluster.HTTPTransport
	node   *cluster.Node
	client *http.Client
	srv    *Server

	// lastAlive remembers the liveness each peer was last seen with, so a
	// dead→alive flip is observable: entries accepted while a peer was down
	// are re-replicated to it the moment it revives.
	aliveMu   sync.Mutex
	lastAlive map[string]bool

	// policy + breakers are the resilience layer: membership is static, so
	// the per-peer breakers are built once at enable time.
	policy   resilience.Policy
	backoff  resilience.Backoff
	breakers map[string]*resilience.Breaker

	forwarded       obs.Counter
	forwardErrors   obs.Counter
	replicated      obs.Counter
	rereplicated    obs.Counter
	replicateErrors obs.Counter
	framesIn        obs.Counter
	distSolves      obs.Counter
	breakerShort    obs.Counter
	degradedServed  obs.Counter
	quorumPuts      obs.Counter
	peerRetries     obs.Counter
	breakerTrips    *obs.CounterVec
	frameRTT        *obs.Histogram

	stopOnce   sync.Once
	stopHealth chan struct{}
	healthDone chan struct{}
}

// EnableCluster joins the server to a shard ring. Call it after New and
// before Handler; a server without it is a plain single-node daemon.
func (s *Server) EnableCluster(cfg ClusterConfig) error {
	if s.cl != nil {
		return errors.New("serve: cluster already enabled")
	}
	if len(cfg.Peers) == 0 {
		return errors.New("serve: cluster config has no peers")
	}
	members := make([]cluster.Member, len(cfg.Peers))
	for i, p := range cfg.Peers {
		members[i] = cluster.Member{ID: p, Addr: p}
	}
	ring, err := cluster.NewRing(members, 0)
	if err != nil {
		return err
	}
	idx, ok := ring.Index(cfg.Self)
	if !ok {
		return fmt.Errorf("serve: self %q is not in the peer list", cfg.Self)
	}
	ordered := ring.Members()
	addrs := make([]string, len(ordered))
	for i, m := range ordered {
		addrs[i] = m.Addr
	}
	client := cfg.Client
	if client == nil {
		// Dial/TLS limits only. An overall client timeout would race the
		// per-request deadline budgets (a 10s constant used to kill
		// long-budget batches mid-stream); attempt timeouts now come from
		// the resilience layer via request contexts.
		client = &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 2 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			TLSHandshakeTimeout:   2 * time.Second,
			MaxIdleConnsPerHost:   16,
			IdleConnTimeout:       90 * time.Second,
			ExpectContinueTimeout: time.Second,
		}}
	}
	tr, err := cluster.NewHTTPTransport(idx, addrs, client)
	if err != nil {
		return err
	}
	node, err := cluster.NewNode(cfg.Self, tr, ring, cfg.timeout(), cfg.retries())
	if err != nil {
		return err
	}
	cl := &clusterState{
		cfg:        cfg,
		selfID:     cfg.Self,
		ring:       ring,
		tr:         tr,
		node:       node,
		client:     client,
		srv:        s,
		policy:     cfg.Resilience,
		lastAlive:  make(map[string]bool, len(ordered)),
		breakers:   make(map[string]*resilience.Breaker, len(ordered)),
		stopHealth: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	cl.backoff = cfg.Resilience.Backoff
	if cl.backoff.Seed == 0 {
		// Deterministic per daemon: the jitter stream is a pure function of
		// the advertised address, so a restarted daemon replays its schedule.
		cl.backoff.Seed = par.Mix64(solveIDFor(cfg.Self))
	}
	for _, m := range ordered {
		cl.lastAlive[m.ID] = true
		if m.ID == cfg.Self {
			continue
		}
		bcfg := cfg.Resilience.Breaker
		peer := m.ID
		prev := bcfg.OnTransition
		bcfg.OnTransition = func(from, to resilience.BreakerState) {
			if cl.breakerTrips != nil {
				cl.breakerTrips.With(peer).Inc()
			}
			cl.srv.log.Info("breaker transition", "peer", peer, "from", from.String(), "to", to.String())
			if prev != nil {
				prev(from, to)
			}
		}
		cl.breakers[m.ID] = resilience.NewBreaker(bcfg)
	}
	node.SetOnPut(func(key string, value []byte) { s.installReplica(key, value) })
	s.cl = cl
	cl.registerMetrics(s.reg)
	if cfg.HealthInterval >= 0 {
		go cl.healthLoop()
	} else {
		close(cl.healthDone)
	}
	s.log.Info("cluster enabled", "self", cfg.Self, "peers", len(cfg.Peers), "replicas", cfg.replicas())
	return nil
}

// registerMetrics exposes the cluster series. Registration happens after the
// single-node set, so a clustered scrape is the single-node page plus the
// faclocd_cluster_* block — the same shape the hand-rendered page had.
func (cl *clusterState) registerMetrics(r *obs.Registry) {
	r.GaugeFunc("faclocd_cluster_peers", "Ring members, live or not.",
		func() float64 { return float64(len(cl.ring.Members())) })
	r.GaugeFunc("faclocd_cluster_peers_alive", "Ring members currently believed alive.",
		func() float64 { return float64(len(cl.ring.AliveMembers())) })
	r.RegisterCounter("faclocd_cluster_forwarded_total", "Requests proxied to the owning shard.", &cl.forwarded)
	r.RegisterCounter("faclocd_cluster_forward_errors_total", "Forwarding attempts that failed (served locally).", &cl.forwardErrors)
	r.RegisterCounter("faclocd_cluster_replicated_total", "Solution entries shipped to replica shards.", &cl.replicated)
	r.RegisterCounter("faclocd_cluster_rereplicated_total", "Entries re-shipped to a revived peer.", &cl.rereplicated)
	r.RegisterCounter("faclocd_cluster_replicate_errors_total", "Replication attempts that failed.", &cl.replicateErrors)
	r.RegisterCounter("faclocd_cluster_frames_in_total", "Wire frames accepted on /cluster/frame.", &cl.framesIn)
	r.CounterFunc("faclocd_cluster_nacks_total", "NACK frames this shard's solves sent after a barrier timeout.", cl.node.Nacks)
	r.RegisterCounter("faclocd_cluster_dist_solves_total", "Distributed solve legs run on this shard.", &cl.distSolves)
	r.RegisterCounter("faclocd_cluster_breaker_short_circuits_total", "Peer calls refused locally by an open circuit breaker.", &cl.breakerShort)
	r.RegisterCounter("faclocd_cluster_degraded_total", "Responses served in degraded mode (local fallback or quorum ack).", &cl.degradedServed)
	r.RegisterCounter("faclocd_cluster_quorum_puts_total", "Instance puts acknowledged at quorum below full replication.", &cl.quorumPuts)
	r.RegisterCounter("faclocd_cluster_peer_retries_total", "Peer call attempts beyond the first.", &cl.peerRetries)
	cl.breakerTrips = r.CounterVec("faclocd_cluster_breaker_transitions_total", "Circuit breaker state transitions, by peer.", "peer")
	r.GaugeFunc("faclocd_cluster_breaker_open", "Peers whose circuit breaker is currently not closed.",
		func() float64 {
			n := 0
			for _, b := range cl.breakers {
				if b.State() != resilience.BreakerClosed {
					n++
				}
			}
			return float64(n)
		})
	r.GaugeFunc("faclocd_cluster_store_entries", "Entries in the cluster replication store.",
		func() float64 { return float64(cl.node.StoreLen()) })
	cl.frameRTT = r.Histogram("faclocd_cluster_frame_rtt_seconds",
		"Round-trip time of remote frame POSTs.", obs.DurationBuckets)
	cl.tr.SetRTTObserver(func(seconds float64) { cl.frameRTT.Observe(seconds) })
}

// stop ends the health loop and transport; called from Server.Shutdown.
func (cl *clusterState) stop() {
	cl.stopOnce.Do(func() {
		close(cl.stopHealth)
		<-cl.healthDone
		_ = cl.tr.Close()
	})
}

// healthLoop probes every peer's /healthz and flips ring liveness. A dead or
// draining peer drops out of the ring (its keyspace falls to successors);
// a recovered one rejoins — this is the whole of "the ring heals".
func (cl *clusterState) healthLoop() {
	defer close(cl.healthDone)
	tick := time.NewTicker(cl.cfg.healthInterval())
	defer tick.Stop()
	for {
		select {
		case <-cl.stopHealth:
			return
		case <-tick.C:
			for _, m := range cl.ring.Members() {
				if m.ID == cl.selfID {
					continue
				}
				cl.noteLiveness(m.ID, cl.probe(m))
			}
		}
	}
}

func (cl *clusterState) probe(m cluster.Member) bool {
	// Probes carry their own bound — the default client no longer has a
	// global timeout, and a hung peer must not stall the health loop.
	ctx, cancel := context.WithTimeout(context.Background(), cl.cfg.healthInterval())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		cl.tr.Addr(mustIndex(cl.ring, m.ID))+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := cl.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	return resp.StatusCode == http.StatusOK
}

func mustIndex(r *cluster.Ring, id string) int {
	idx, ok := r.Index(id)
	if !ok {
		panic("serve: ring member " + id + " vanished")
	}
	return idx
}

// owner returns the live shard owning key, and whether it is this one.
func (cl *clusterState) owner(key string) (cluster.Member, bool, bool) {
	m, ok := cl.ring.Owner(key)
	return m, m.ID == cl.selfID, ok
}

// breakerFor returns the peer's circuit breaker (nil for self/unknown —
// callers treat nil as always-allowed).
func (cl *clusterState) breakerFor(id string) *resilience.Breaker {
	return cl.breakers[id]
}

// replicationContext derives the budget background replication runs under:
// the triggering request's own deadline when it has one (replication is part
// of serving it), else the configured background budget — never an unbounded
// or hardcoded-30s context.
func (cl *clusterState) replicationContext(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	if _, ok := parent.Deadline(); ok {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, cl.cfg.replicationBudget())
}

// peerResp is one completed peer call: status + bounded body, fully read so
// the attempt context can be released before the caller looks at it.
type peerResp struct {
	status int
	header http.Header
	body   []byte
}

// errPeerUnreachable marks transport-level peer failures (vs breaker/budget
// refusals), so callers know when a liveness flip is warranted.
type errPeerUnreachable struct {
	peer string
	err  error
}

func (e *errPeerUnreachable) Error() string {
	return "serve: peer " + e.peer + " unreachable: " + e.err.Error()
}
func (e *errPeerUnreachable) Unwrap() error { return e.err }

// peerCall performs a budgeted, breaker-gated, deterministically retried
// POST to one peer. Every attempt runs under min(per-attempt cap, remaining
// deadline budget) and stamps the remaining budget on the wire, so no hop
// ever grants a peer more time than the caller has left. attempts overrides
// the policy's count (≤ 0 = policy default; pass 1 for non-idempotent
// calls). 5xx responses and transport errors count as breaker failures and
// are retried; any other response returns as-is (the peer is healthy, the
// answer is the answer).
func (cl *clusterState) peerCall(ctx context.Context, id, path string, body []byte, hdr http.Header, attempts int) (*peerResp, error) {
	// Budget first: an exhausted budget is the caller's fault, not the
	// peer's — fail before a breaker probe slot is consumed.
	if _, err := resilience.AttemptTimeout(ctx, cl.policy.AttemptTimeoutOrDefault()); err != nil {
		return nil, fmt.Errorf("serve: peer %s: %w", id, err)
	}
	br := cl.breakerFor(id)
	if br != nil && !br.Allow() {
		cl.breakerShort.Add(1)
		return nil, fmt.Errorf("serve: peer %s: %w", id, resilience.ErrBreakerOpen)
	}
	if attempts <= 0 {
		attempts = cl.policy.AttemptsOrDefault()
	}
	addr := cl.tr.Addr(mustIndex(cl.ring, id))
	var out *peerResp
	tries := 0
	err := cl.backoff.Retry(ctx, attempts, nil, func(ctx context.Context) error {
		tries++
		if tries > 1 {
			cl.peerRetries.Add(1)
		}
		actx, cancel, err := resilience.Attempt(ctx, cl.policy.AttemptTimeoutOrDefault())
		if err != nil {
			return err
		}
		defer cancel()
		req, err := http.NewRequestWithContext(actx, http.MethodPost, addr+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		for k, vs := range hdr {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		resilience.StampHeader(req.Header, actx)
		resp, err := cl.client.Do(req)
		if err != nil {
			if br != nil {
				br.Record(false)
			}
			return &errPeerUnreachable{peer: id, err: err}
		}
		// Read the body while the attempt context is still alive; responses
		// on this path are bounded (reports, metas, error envelopes).
		rb, rerr := io.ReadAll(io.LimitReader(resp.Body, cl.srv.cfg.maxBody()))
		resp.Body.Close()
		if rerr != nil {
			if br != nil {
				br.Record(false)
			}
			return &errPeerUnreachable{peer: id, err: rerr}
		}
		if resp.StatusCode >= 500 {
			if br != nil {
				br.Record(false)
			}
			return fmt.Errorf("serve: peer %s: %s: %s", id, resp.Status, bytes.TrimSpace(rb))
		}
		if br != nil {
			br.Record(true)
		}
		out = &peerResp{status: resp.StatusCode, header: resp.Header, body: rb}
		return nil
	})
	if err != nil {
		if tries == 0 && br != nil {
			// The budget died between Allow and the first attempt: release
			// the half-open probe slot rather than leak it.
			br.Record(false)
		}
		return nil, err
	}
	return out, nil
}

// noteLiveness applies one liveness observation to the ring. On a dead→alive
// flip it re-replicates this shard's state to the revived peer: entries
// accepted while the peer was down routed around it, so without this push a
// revived replica would stay cold until clients resubmitted.
func (cl *clusterState) noteLiveness(id string, alive bool) {
	cl.ring.SetAlive(id, alive)
	cl.aliveMu.Lock()
	was := cl.lastAlive[id]
	cl.lastAlive[id] = alive
	cl.aliveMu.Unlock()
	if alive != was {
		cl.srv.log.Info("peer liveness changed", "peer", id, "alive", alive)
	}
	if alive && !was {
		cl.srv.reReplicateTo(id)
	}
}

// ---------- replication ----------

// replicateEntry ships a freshly solved entry to the shards that own its
// instance, under the triggering request's deadline budget (or the
// background replication budget when the request has none — never a
// hardcoded 30s that pins goroutines per entry). Each target leg is gated by
// the peer's circuit breaker and feeds its outcome back. Failure leaves the
// local result intact and correct — counted and reported, not hidden, but
// never failing the solve.
func (s *Server) replicateEntry(ctx context.Context, e *entry) {
	cl := s.cl
	rep, err := encodeEntry(e)
	if err != nil {
		cl.replicateErrors.Add(1)
		return
	}
	rctx, cancel := cl.replicationContext(ctx)
	defer cancel()
	// Routed by the instance hash: a solution lives where its instance does.
	targets := cl.ring.Successors(e.instHash, cl.cfg.replicas())
	if len(targets) == 0 {
		cl.replicateErrors.Add(1)
		return
	}
	shipped := false
	for _, m := range targets {
		if err := cl.replicateEntryTo(rctx, m.ID, e.id, rep); err != nil {
			cl.replicateErrors.Add(1)
			continue
		}
		shipped = true
	}
	if shipped {
		cl.replicated.Add(1)
	}
}

// replicateEntryTo ships one encoded entry to one ring member through the
// peer's breaker: an open circuit short-circuits the leg instead of waiting
// out the full ack-retry ladder against a peer known to be failing.
func (cl *clusterState) replicateEntryTo(ctx context.Context, memberID, key string, rep []byte) error {
	if memberID == cl.selfID {
		return cl.node.ReplicateTo(ctx, memberID, key, rep)
	}
	br := cl.breakerFor(memberID)
	if br != nil && !br.Allow() {
		cl.breakerShort.Add(1)
		return fmt.Errorf("serve: peer %s: %w", memberID, resilience.ErrBreakerOpen)
	}
	err := cl.node.ReplicateTo(ctx, memberID, key, rep)
	if br != nil {
		br.Record(err == nil)
	}
	return err
}

// installReplica rebuilds a cache entry from replicated bytes and inserts it
// (first-write-wins, like every path into the cache). putSolution persists
// the entry before returning, and this hook runs before the put's ack frame
// is sent — so a durable replica has the entry on disk before the origin
// counts the replica as holding it.
func (s *Server) installReplica(key string, value []byte) {
	re, err := decodeEntry(value)
	if err != nil {
		s.cl.replicateErrors.Add(1)
		return
	}
	s.st.putSolution(s.entryFromReplica(re))
}

// reReplicateTo pushes this shard's state at a peer that just flipped
// dead→alive: instances first (content-addressed, so resubmission is a
// no-op), then every cached entry whose replica set includes the revived
// peer. Everything is first-write-wins and idempotent, so concurrent
// re-replication from several survivors is benign.
func (s *Server) reReplicateTo(id string) {
	cl := s.cl
	if _, ok := cl.ring.Index(id); !ok {
		return
	}
	// An explicit background budget for the whole sweep: re-replication has
	// no triggering request, but it must not pin goroutines indefinitely if
	// the revived peer immediately dies again.
	ctx, cancel := context.WithTimeout(context.Background(), cl.cfg.replicationBudget())
	defer cancel()
	hdr := http.Header{forwardedHeader: []string{"1"}}
	for _, h := range s.st.instanceHashes() {
		in, ok := s.st.instance(h)
		if !ok {
			continue
		}
		var buf bytes.Buffer
		if err := facloc.WriteInstance(&buf, in); err != nil {
			continue
		}
		if _, err := cl.peerCall(ctx, id, "/instances", buf.Bytes(), hdr, 0); err != nil {
			cl.replicateErrors.Add(1)
			if ctx.Err() != nil {
				return // budget spent; the next revival sweep finishes the job
			}
		}
	}
	replicas := cl.cfg.replicas()
	for _, e := range s.st.entrySnapshot() {
		held := false
		for _, m := range cl.ring.Successors(e.instHash, replicas) {
			if m.ID == id {
				held = true
				break
			}
		}
		if !held {
			continue
		}
		rep, err := encodeEntry(e)
		if err != nil {
			cl.replicateErrors.Add(1)
			continue
		}
		if err := cl.replicateEntryTo(ctx, id, e.id, rep); err != nil {
			cl.replicateErrors.Add(1)
			if ctx.Err() != nil {
				return
			}
			continue
		}
		cl.replicated.Add(1)
		cl.rereplicated.Add(1)
	}
}

// ---------- forwarding ----------

// forwardToOwner proxies a request body to the shard owning key, marking it
// forwarded so the receiver serves it locally. Returns false when the
// request should be served here instead: this shard owns the key, the
// request already hopped once, or the owner is unreachable (counted, and
// served locally — routing is placement, not correctness).
func (s *Server) forwardToOwner(ctx context.Context, w http.ResponseWriter, r *http.Request, key, path string, body []byte) bool {
	cl := s.cl
	if cl == nil || r.Header.Get(forwardedHeader) != "" {
		return false
	}
	m, self, ok := cl.owner(key)
	if !ok || self {
		return false
	}
	hdr := http.Header{}
	hdr.Set("Content-Type", r.Header.Get("Content-Type"))
	hdr.Set(forwardedHeader, "1")
	if th := r.Header.Get(TraceHeader); th != "" {
		hdr.Set(TraceHeader, th)
	}
	resp, err := cl.peerCall(ctx, m.ID, path, body, hdr, 0)
	if err != nil {
		// Breaker-open and budget failures are local decisions: the peer may
		// be fine, so only a transport-level failure flips liveness. Either
		// way the request serves locally — routing is placement, not
		// correctness.
		var unreachable *errPeerUnreachable
		if errors.As(err, &unreachable) {
			cl.noteLiveness(m.ID, false)
		}
		cl.forwardErrors.Add(1)
		return false
	}
	cl.forwarded.Add(1)
	w.Header().Set("Content-Type", resp.header.Get("Content-Type"))
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
	return true
}

// replicateInstance ships a freshly submitted instance to every shard in its
// replica set (owner + successors), so hash-only requests routed there always
// find it. It runs under the request's deadline budget with each leg gated by
// the peer's breaker, and returns (acked, total, err) over the replica set —
// this shard counts as an ack when it is in the set, and err joins every
// failed leg by name. The handler decides what the counts mean: all for a
// clean ack, a quorum under allow_degraded. Forwarded submissions return
// (1, 1, nil): a replica push never fans out again.
func (s *Server) replicateInstance(ctx context.Context, r *http.Request, hash string, body []byte) (acked, total int, err error) {
	cl := s.cl
	if cl == nil || r.Header.Get(forwardedHeader) != "" {
		return 1, 1, nil
	}
	targets := cl.ring.Successors(hash, cl.cfg.replicas())
	if len(targets) == 0 {
		return 1, 1, nil
	}
	rctx, cancel := cl.replicationContext(ctx)
	defer cancel()
	hdr := http.Header{forwardedHeader: []string{"1"}}
	var errs []error
	for _, m := range targets {
		total++
		if m.ID == cl.selfID {
			acked++ // already stored (and persisted) locally
			continue
		}
		resp, perr := cl.peerCall(rctx, m.ID, "/instances", body, hdr, 0)
		if perr == nil && resp.status != http.StatusOK && resp.status != http.StatusCreated {
			perr = fmt.Errorf("serve: replica %s: status %d: %s", m.ID, resp.status, bytes.TrimSpace(resp.body))
		}
		if perr != nil {
			cl.replicateErrors.Add(1)
			errs = append(errs, perr)
			continue
		}
		acked++
	}
	return acked, total, errors.Join(errs...)
}

// forwardSolve routes a /solve request to the shard owning its instance.
// With the instance in hand it travels inline (the owner may not hold it
// yet); a hash-only request the local store cannot answer forwards by hash
// alone. Returns false when the request should be served here.
func (s *Server) forwardSolve(ctx context.Context, w http.ResponseWriter, r *http.Request, req *SolveRequest, in *facloc.Instance, instHash string) bool {
	if s.cl == nil || r.Header.Get(forwardedHeader) != "" {
		return false
	}
	fwd := *req
	if in != nil {
		var buf bytes.Buffer
		if err := facloc.WriteInstance(&buf, in); err != nil {
			return false
		}
		fwd.Hash, fwd.Instance = "", buf.Bytes()
	}
	body, err := json.Marshal(&fwd)
	if err != nil {
		return false
	}
	return s.forwardToOwner(ctx, w, r, instHash, "/solve", body)
}

// ---------- distributed solve ----------

// distSolveRequest is the POST /cluster/solve body: the coordinator fans it
// to every peer, instance inline (shards need the full instance; it enters
// each shard's store content-addressed).
type distSolveRequest struct {
	SolveID uint64  `json:"solve_id"`
	Hash    string  `json:"hash"`
	Epsilon float64 `json:"eps"`
	Seed    int64   `json:"seed"`
	Workers int     `json:"workers,omitempty"`
	// TraceID is the coordinator's trace id; every leg records its flight
	// trace and stamps its frames under it, so the solve stitches into one
	// cross-shard trace.
	TraceID  uint64          `json:"trace_id,omitempty"`
	Instance json.RawMessage `json:"instance"`
}

// solveIDFor derives the shared solve ordinal every shard uses to
// multiplex frames: deterministic in the cache key, so no allocation round.
func solveIDFor(key string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-64 offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h | 1 // never zero
}

// distLeg runs this shard's leg of a distributed solve and caches the
// result under the pd-dist solver name. traceID labels the leg's flight
// trace and every frame it sends (0 = mint one locally).
func (s *Server) distLeg(ctx context.Context, in *facloc.Instance, instHash string, opts facloc.Options, solveID, traceID uint64) (*entry, error) {
	solver, ok := facloc.Lookup(DistSolverName)
	if !ok {
		return nil, &unknownSolverError{name: DistSolverName}
	}
	key := solveKey(instHash, DistSolverName, opts)
	id := solutionID(key)
	if e, ok := s.st.solution(id); ok && e.key == key {
		s.met.cacheHits.Add(1)
		return e, nil
	}
	s.met.cacheMisses.Add(1)
	s.met.solvesTotal.Add(1)
	s.cl.distSolves.Add(1)
	if traceID == 0 {
		traceID = obs.NewTraceID()
	}
	rec := &obs.Recorder{}
	shard, _ := s.cl.ring.Index(s.cl.selfID)
	shards := len(s.cl.ring.Members())
	start := time.Now()
	c := &par.Ctx{Workers: opts.Workers, Tally: &par.Tally{}, Trace: rec}
	// The leg solves over the dense matrix; the handle below keeps the
	// point-backed instance, so coordinate queries still work on the result.
	var res *primaldual.Result
	dense, err := in.DensifiedCap(c, opts.DenseLimit)
	if err != nil {
		err = &tooLargeError{name: DistSolverName, nf: in.NF, nc: in.NC, limit: opts.DenseLimit}
	} else {
		res, err = s.cl.node.SolveDistributedTraced(ctx, c, dense, &primaldual.Options{
			Epsilon: opts.Canonical().Epsilon, Seed: opts.Seed,
		}, solveID, traceID)
	}
	if err != nil {
		s.met.solveErrors.Add(1)
		s.log.Warn("distributed solve leg failed", "trace", obs.FormatTraceID(traceID),
			"instance", instHash, "shard", shard, "err", err)
		return nil, err
	}
	wall := time.Since(start)
	s.solveDur.Observe(wall.Seconds())
	s.bySolver.With(DistSolverName).Inc()
	s.flight.Record(&obs.SolveTrace{
		TraceID:     obs.FormatTraceID(traceID),
		Solver:      DistSolverName,
		Instance:    instHash,
		Shard:       shard,
		Shards:      shards,
		Start:       start,
		WallSeconds: wall.Seconds(),
		Rounds:      rec.Rounds(),
		Events:      rec.Events(),
	})
	s.log.Info("distributed solve leg", "trace", obs.FormatTraceID(traceID),
		"instance", instHash, "shard", shard, "shards", shards,
		"rounds", rec.Rounds(), "wall_ms", float64(wall)/float64(time.Millisecond))
	e := &entry{
		id:       id,
		key:      key,
		instHash: instHash,
		report: &facloc.Report{
			Solver:    DistSolverName,
			Guarantee: solver.Guarantee(),
			Solution:  res.Sol,
			Stats:     facloc.Stats{WallTime: time.Since(start)},
		},
		handle: newHandle(in, res.Sol),
		seed:   opts.Seed,
	}
	e.reportJSON = renderReport(e)
	return s.st.putSolution(e), nil
}

// handleClusterSolve is the peer side of a distributed solve: store the
// instance, run this shard's leg, return the cached id. The coordinator
// POSTs it to every peer; frames flow through /cluster/frame while each
// peer's handler is blocked here.
func (s *Server) handleClusterSolve(w http.ResponseWriter, r *http.Request) {
	if s.cl == nil {
		writeError(w, http.StatusNotFound, errors.New("serve: clustering is not enabled"))
		return
	}
	body, err := readCapped(r.Body, s.cfg.maxBody())
	if err != nil {
		writeError(w, status(err), err)
		return
	}
	var req distSolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	in, err := facloc.ReadInstance(bytes.NewReader(req.Instance))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	instHash, _, err := s.st.putInstance(in)
	if err != nil {
		writeError(w, status(err), err)
		return
	}
	if req.Hash != "" && req.Hash != instHash {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: instance hashes to %s, request says %s", instHash, req.Hash))
		return
	}
	// The coordinator's remaining budget arrives on the wire; this leg must
	// finish (or fail loudly) inside it.
	bctx, bcancel, err := resilience.FromHeader(r.Context(), r.Header)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer bcancel()
	release, err := s.acquire(bctx)
	if err != nil {
		writeError(w, status(err), err)
		return
	}
	defer release()
	ctx, cancel := s.solveContext(bctx, 0)
	defer cancel()
	opts := facloc.Options{Epsilon: req.Epsilon, Seed: req.Seed, Workers: req.Workers, TrackCost: true, DenseLimit: s.cfg.denseLimit()}
	if req.TraceID != 0 {
		w.Header().Set(TraceHeader, obs.FormatTraceID(req.TraceID))
	}
	e, err := s.distLeg(ctx, in, instHash, opts, req.SolveID, req.TraceID)
	if err != nil {
		writeError(w, status(err), err)
		return
	}
	writeJSON(w, http.StatusOK, solveResponse{ID: e.id, InstanceHash: e.instHash, Cached: true, Report: e.reportJSON})
}

// impaired reports whether the ring is currently unfit for a full
// distributed solve: a member believed dead, or a peer whose circuit breaker
// is not closed. Degraded-mode requests consult it to skip a fan-out that is
// known to fail.
func (cl *clusterState) impaired() bool {
	for _, m := range cl.ring.Members() {
		if m.ID == cl.selfID {
			continue
		}
		if !cl.ring.Alive(m.ID) {
			return true
		}
		if br := cl.breakerFor(m.ID); br != nil && br.State() != resilience.BreakerClosed {
			return true
		}
	}
	return false
}

// degradedFallback serves a pd-dist request locally with pd-par: the same
// approximation guarantee from this shard alone. The result caches under
// pd-par's own key — honestly earned — and the pd-dist key stays vacant, so
// a healthy ring later re-runs the real thing; the response is labeled
// degraded by the caller.
func (s *Server) degradedFallback(ctx context.Context, in *facloc.Instance, instHash string, opts facloc.Options, traceID uint64, cause error) (*entry, error) {
	solver, ok := facloc.Lookup("pd-par")
	if !ok {
		return nil, fmt.Errorf("serve: degraded fallback has no pd-par solver (cause: %w)", cause)
	}
	s.cl.degradedServed.Add(1)
	s.log.Warn("serving degraded: pd-dist ring impaired, falling back to local pd-par",
		"trace", obs.FormatTraceID(traceID), "instance", instHash, "cause", cause)
	e, _, err := s.solve(ctx, in, instHash, solver, opts, traceID)
	return e, err
}

// distSolve coordinates a distributed solve across the whole ring: ship the
// instance and solve ordinal to every peer, run the local leg, and require
// every leg to succeed. Any shard failing — crashed, lagging, partitioned,
// breaker-open — fails the request loudly naming the shard; the solution is
// never served from a partial round. With allowDegraded set, an impaired
// ring (or a failed fan-out) instead falls back to a local pd-par solve,
// returned with degraded=true and never cached under the clean pd-dist key.
func (s *Server) distSolve(ctx context.Context, in *facloc.Instance, instHash string, opts facloc.Options, traceID uint64, allowDegraded bool) (e *entry, degraded bool, err error) {
	cl := s.cl
	key := solveKey(instHash, DistSolverName, opts)
	if e, ok := s.st.solution(solutionID(key)); ok && e.key == key {
		s.met.cacheHits.Add(1)
		return e, false, nil
	}
	if traceID == 0 {
		traceID = obs.NewTraceID()
	}
	if allowDegraded && cl.impaired() {
		e, err := s.degradedFallback(ctx, in, instHash, opts, traceID,
			errors.New("ring impaired (dead peer or open breaker)"))
		return e, err == nil, err
	}
	var buf bytes.Buffer
	if err := facloc.WriteInstance(&buf, in); err != nil {
		return nil, false, err
	}
	body, err := json.Marshal(distSolveRequest{
		SolveID:  solveIDFor(key),
		Hash:     instHash,
		Epsilon:  opts.Canonical().Epsilon,
		Seed:     opts.Seed,
		Workers:  opts.Workers,
		TraceID:  traceID,
		Instance: buf.Bytes(),
	})
	if err != nil {
		return nil, false, err
	}
	hdr := http.Header{"Content-Type": []string{"application/json"}}
	members := cl.ring.Members()
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		if m.ID == cl.selfID {
			continue
		}
		wg.Add(1)
		go func(i int, m cluster.Member) {
			defer wg.Done()
			// One attempt per leg: a retried /cluster/solve would collide
			// with the first leg still holding the shard's exchange slot.
			// The breaker and deadline budget still apply.
			resp, err := cl.peerCall(ctx, m.ID, "/cluster/solve", body, hdr, 1)
			if err != nil {
				errs[i] = fmt.Errorf("serve: shard %s: %w", m.ID, err)
				return
			}
			if resp.status != http.StatusOK {
				errs[i] = fmt.Errorf("serve: shard %s: status %d: %s", m.ID, resp.status, bytes.TrimSpace(resp.body))
			}
		}(i, m)
	}
	e, legErr := s.distLeg(ctx, in, instHash, opts, solveIDFor(key), traceID)
	wg.Wait()
	if err := errors.Join(append(errs, legErr)...); err != nil {
		if allowDegraded {
			fe, ferr := s.degradedFallback(ctx, in, instHash, opts, traceID, err)
			return fe, ferr == nil, ferr
		}
		return nil, false, err
	}
	return e, false, nil
}

// ---------- cluster HTTP surface ----------

func (s *Server) handleClusterFrame(w http.ResponseWriter, r *http.Request) {
	if s.cl == nil {
		writeError(w, http.StatusNotFound, errors.New("serve: clustering is not enabled"))
		return
	}
	body, err := readCapped(r.Body, int64(cluster.MaxFrameBody)+64)
	if err != nil {
		writeError(w, status(err), err)
		return
	}
	if err := s.cl.tr.Deliver(body); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.cl.framesIn.Add(1)
	w.WriteHeader(http.StatusOK)
}

// memberView is one ring row of GET /cluster/ring. Breaker is this daemon's
// local circuit state for the peer ("closed"/"open"/"half-open"; self is
// always "closed" — there is no circuit to yourself).
type memberView struct {
	ID      string `json:"id"`
	Addr    string `json:"addr"`
	Alive   bool   `json:"alive"`
	Breaker string `json:"breaker"`
}

type ringView struct {
	Self    string       `json:"self"`
	Members []memberView `json:"members"`
}

func (s *Server) handleClusterRing(w http.ResponseWriter, r *http.Request) {
	if s.cl == nil {
		writeError(w, http.StatusNotFound, errors.New("serve: clustering is not enabled"))
		return
	}
	ms := s.cl.ring.Members()
	view := ringView{Self: s.cl.selfID, Members: make([]memberView, 0, len(ms))}
	for _, m := range ms {
		state := resilience.BreakerClosed
		if br := s.cl.breakerFor(m.ID); br != nil {
			state = br.State()
		}
		view.Members = append(view.Members, memberView{
			ID: m.ID, Addr: m.Addr, Alive: s.cl.ring.Alive(m.ID), Breaker: state.String(),
		})
	}
	sort.Slice(view.Members, func(a, b int) bool { return view.Members[a].ID < view.Members[b].ID })
	writeJSON(w, http.StatusOK, view)
}
