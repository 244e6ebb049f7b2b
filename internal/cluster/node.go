package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/primaldual"
)

// Node is one shard's cluster brain, transport-agnostic: it demultiplexes
// inbound frames (solve barriers to the active Exchange or, early, to the
// per-solve inbox; puts into the replicated store), replicates store entries
// with acked retries, and drives this shard's leg of a distributed solve.
// faclocd embeds one over an HTTPTransport; the virtual cluster embeds N
// over one VirtualFabric.
type Node struct {
	id      string
	self    int
	tr      Transport
	ring    *Ring
	seqs    seqSource
	timeout time.Duration
	retries int

	mu     sync.Mutex
	store  map[string][]byte
	ex     *Exchange
	exBusy bool
	inbox  []*earlySolve // solves with early round frames, oldest first
	nacks  int64         // NACKs sent by this node's finished exchanges
	acks   map[uint32]chan string
	onPut  func(key string, value []byte)
}

// inboxSolves caps how many unregistered solves a Node buffers early round
// frames for; a new one evicts the oldest. An evicted solve is still
// correct: its peers' frames come back through the NACK ladder.
const inboxSolves = 4

// earlySolve holds the round frames peers sent for one solve before this
// shard registered its Exchange: the first frame per sender. A peer cannot
// pass barrier 0 without this shard's frame, so that first frame is its
// barrier-0 frame and the inbox holds at most n−1 frames per solve.
type earlySolve struct {
	id     uint64
	frames []*primaldual.ExchangeFrame // by sender
}

// SetOnPut registers a callback fired once per key the replicated store
// accepts (first write only, local or remote). The serve layer uses it to
// rebuild cache entries from replicated bytes.
func (n *Node) SetOnPut(fn func(key string, value []byte)) {
	n.mu.Lock()
	n.onPut = fn
	n.mu.Unlock()
}

// NewNode wires a node over tr and registers its frame dispatcher. The ring
// must list every peer; id must be this node's ring member ID at ordinal
// tr.Self(). timeout/retries ≤ 0 take the exchange defaults.
func NewNode(id string, tr Transport, ring *Ring, timeout time.Duration, retries int) (*Node, error) {
	idx, ok := ring.Index(id)
	if !ok {
		return nil, fmt.Errorf("cluster: node %q not in ring", id)
	}
	if idx != tr.Self() {
		return nil, fmt.Errorf("cluster: node %q is ring ordinal %d but transport shard %d", id, idx, tr.Self())
	}
	if len(ring.Members()) != tr.N() {
		return nil, fmt.Errorf("cluster: ring has %d members, transport %d shards", len(ring.Members()), tr.N())
	}
	if timeout <= 0 {
		timeout = DefaultExchangeTimeout
	}
	if retries <= 0 {
		retries = DefaultExchangeRetries
	}
	n := &Node{
		id:      id,
		self:    idx,
		tr:      tr,
		ring:    ring,
		timeout: timeout,
		retries: retries,
		store:   make(map[string][]byte),
		acks:    make(map[uint32]chan string),
	}
	tr.SetHandler(n.HandleFrame)
	return n, nil
}

// ID returns the node's ring member ID; Self its shard ordinal.
func (n *Node) ID() string           { return n.id }
func (n *Node) Self() int            { return n.self }
func (n *Node) Ring() *Ring          { return n.ring }
func (n *Node) Transport() Transport { return n.tr }

// HandleFrame is the node's inbound dispatcher (registered as the transport
// handler; HTTP servers may also call it directly). A round frame goes to
// the registered Exchange when it carries that Exchange's solve id — also
// after the solve completed, so late peers still get their NACKs answered —
// and otherwise into the per-solve inbox, which RunExchange drains when it
// registers that solve. NACKs only reach the registered Exchange: an early
// NACK is dropped, and the shard broadcasts its frame when it reaches the
// barrier anyway.
func (n *Node) HandleFrame(f *Frame) {
	if f == nil || f.Validate() != nil {
		return
	}
	switch f.Type {
	case FrameRound:
		rb, err := DecodeRoundBody(f.Body)
		if err != nil {
			return
		}
		n.mu.Lock()
		ex := n.ex
		if ex == nil || ex.solveID != rb.SolveID {
			n.holdEarly(int(f.From), rb)
			ex = nil
		}
		n.mu.Unlock()
		if ex != nil {
			ex.handleRound(int(f.From), rb)
		}
	case FrameNack:
		n.mu.Lock()
		ex := n.ex
		n.mu.Unlock()
		if ex != nil {
			ex.HandleFrame(f)
		}
	case FramePut:
		pb, err := DecodePutBody(f.Body)
		status := ""
		if err != nil {
			status = err.Error()
		} else {
			n.storePut(pb.Key, pb.Value)
		}
		// Ack the seq that carried the put; a lost ack just means the sender
		// retries and we store idempotently again.
		ack := EncodeAckBody(&AckBody{AckSeq: f.Seq, Err: status})
		_ = n.tr.Send(int(f.From), &Frame{Type: FrameAck, From: int32(n.self), Seq: n.seqs.next(), Body: ack})
	case FrameAck:
		ab, err := DecodeAckBody(f.Body)
		if err != nil {
			return
		}
		n.mu.Lock()
		ch := n.acks[ab.AckSeq]
		delete(n.acks, ab.AckSeq)
		n.mu.Unlock()
		if ch != nil {
			ch <- ab.Err
		}
	}
}

// holdEarly buffers a round frame for a solve this shard has not registered
// yet, keeping the first frame per sender. Callers hold n.mu.
func (n *Node) holdEarly(from int, rb *RoundBody) {
	if from == n.self || from >= n.tr.N() {
		return
	}
	var es *earlySolve
	for _, e := range n.inbox {
		if e.id == rb.SolveID {
			es = e
			break
		}
	}
	if es == nil {
		if len(n.inbox) == inboxSolves {
			n.inbox = append(n.inbox[:0], n.inbox[1:]...)
		}
		es = &earlySolve{id: rb.SolveID, frames: make([]*primaldual.ExchangeFrame, n.tr.N())}
		n.inbox = append(n.inbox, es)
	}
	if es.frames[from] == nil {
		es.frames[from] = &rb.Frame
	}
}

// takeEarly removes solveID's inbox entry and returns its frames by sender
// (nil if none arrived early). Callers hold n.mu.
func (n *Node) takeEarly(solveID uint64) []*primaldual.ExchangeFrame {
	for i, e := range n.inbox {
		if e.id == solveID {
			n.inbox = append(n.inbox[:i], n.inbox[i+1:]...)
			return e.frames
		}
	}
	return nil
}

// Nacks reports how many NACK frames this node's exchanges have sent after
// a barrier timeout. A fault-free cluster sends none.
func (n *Node) Nacks() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := n.nacks
	if n.exBusy {
		total += n.ex.Nacks()
	}
	return total
}

// storePut is first-write-wins, matching the serve-layer solution store: a
// replayed replication of a content-addressed entry can never flip bytes.
func (n *Node) storePut(key string, value []byte) {
	n.mu.Lock()
	_, exists := n.store[key]
	var hook func(string, []byte)
	if !exists {
		n.store[key] = value
		hook = n.onPut
	}
	n.mu.Unlock()
	if hook != nil {
		hook(key, value)
	}
}

// Get reads a key from this node's local store slice.
func (n *Node) Get(key string) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.store[key]
	return v, ok
}

// StoreLen reports how many entries this node holds (metrics, tests).
func (n *Node) StoreLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.store)
}

// replicate ships one entry to peer `to` and waits for its ack, retrying
// with fresh seqs (fresh fault coins) until the retry budget is spent.
func (n *Node) replicate(ctx context.Context, to int, body []byte) error {
	for attempt := 0; attempt <= n.retries; attempt++ {
		seq := n.seqs.next()
		ch := make(chan string, 1)
		n.mu.Lock()
		n.acks[seq] = ch
		n.mu.Unlock()
		_ = n.tr.Send(to, &Frame{Type: FramePut, From: int32(n.self), Seq: seq, Body: body})
		timer := time.NewTimer(n.timeout)
		select {
		case status := <-ch:
			timer.Stop()
			if status != "" {
				return fmt.Errorf("cluster: shard %d rejected put: %s", to, status)
			}
			return nil
		case <-ctx.Done():
			timer.Stop()
			n.dropAck(seq)
			return ctx.Err()
		case <-timer.C:
			n.dropAck(seq)
		}
	}
	return fmt.Errorf("cluster: no ack from shard %d after %d put attempts", to, n.retries+1)
}

func (n *Node) dropAck(seq uint32) {
	n.mu.Lock()
	delete(n.acks, seq)
	n.mu.Unlock()
}

// Put writes key on its owning shard and the next replicas-1 live ring
// successors — wherever that set includes this node, the write is local.
// It returns an error if any live target could not be reached ("correct or
// loud"); dead members are already routed around by the ring.
func (n *Node) Put(ctx context.Context, key string, value []byte, replicas int) error {
	return n.PutKeyed(ctx, key, key, value, replicas)
}

// PutKeyed is Put with the ring placement decoupled from the storage key:
// the entry lands on routeKey's owner and successors but is stored (and
// later fetched) under key. The serve layer routes solution entries by their
// instance's content address so a solution lives with its instance.
func (n *Node) PutKeyed(ctx context.Context, routeKey, key string, value []byte, replicas int) error {
	if replicas <= 0 {
		replicas = 1
	}
	targets := n.ring.Successors(routeKey, replicas)
	if len(targets) == 0 {
		return fmt.Errorf("cluster: no live shard owns %q", routeKey)
	}
	body := EncodePutBody(&PutBody{Key: key, Value: value})
	for _, m := range targets {
		if m.ID == n.id {
			n.storePut(key, value)
			continue
		}
		idx, ok := n.ring.Index(m.ID)
		if !ok {
			return fmt.Errorf("cluster: ring member %q has no ordinal", m.ID)
		}
		if err := n.replicate(ctx, idx, body); err != nil {
			return err
		}
	}
	return nil
}

// ReplicateTo ships one key/value to a single ring member and waits for its
// ack, through the same acked-retry ladder Put uses. It exists so the layer
// above can drive per-target policy — circuit breakers, quorum counting —
// that the all-or-nothing Put/PutKeyed cannot express. Shipping to self is a
// local store write.
func (n *Node) ReplicateTo(ctx context.Context, memberID, key string, value []byte) error {
	if memberID == n.id {
		n.storePut(key, value)
		return nil
	}
	idx, ok := n.ring.Index(memberID)
	if !ok {
		return fmt.Errorf("cluster: ring member %q has no ordinal", memberID)
	}
	return n.replicate(ctx, idx, EncodePutBody(&PutBody{Key: key, Value: value}))
}

// PutKeyedQuorum is PutKeyed under degraded-mode rules: every live target is
// attempted, but the write succeeds once acked ≥ quorum of them (quorum ≤ 0
// means a strict majority of the target set). It returns how many replicas
// acked — callers label a response degraded when acked < len(targets). Unlike
// PutKeyed it never stops at the first failed peer, so a single slow or dead
// replica cannot block a quorum that is otherwise reachable.
func (n *Node) PutKeyedQuorum(ctx context.Context, routeKey, key string, value []byte, replicas, quorum int) (acked, targets int, err error) {
	if replicas <= 0 {
		replicas = 1
	}
	set := n.ring.Successors(routeKey, replicas)
	if len(set) == 0 {
		return 0, 0, fmt.Errorf("cluster: no live shard owns %q", routeKey)
	}
	if quorum <= 0 {
		quorum = len(set)/2 + 1
	}
	body := EncodePutBody(&PutBody{Key: key, Value: value})
	var errs []error
	for _, m := range set {
		if m.ID == n.id {
			n.storePut(key, value)
			acked++
			continue
		}
		idx, ok := n.ring.Index(m.ID)
		if !ok {
			errs = append(errs, fmt.Errorf("cluster: ring member %q has no ordinal", m.ID))
			continue
		}
		if rerr := n.replicate(ctx, idx, body); rerr != nil {
			errs = append(errs, rerr)
			continue
		}
		acked++
	}
	if acked < quorum {
		errs = append(errs, fmt.Errorf("cluster: quorum put %q acked %d of %d (need %d)", key, acked, len(set), quorum))
		return acked, len(set), errors.Join(errs...)
	}
	return acked, len(set), nil
}

// SolveDistributed runs this shard's leg of a distributed primal-dual solve.
// All shards must call it with the same instance, options, and solveID; each
// returns the full bitwise-identical Result or an explicit error.
func (n *Node) SolveDistributed(ctx context.Context, c *par.Ctx, in *core.Instance, opts *primaldual.Options, solveID uint64) (*primaldual.Result, error) {
	return n.SolveDistributedTraced(ctx, c, in, opts, solveID, 0)
}

// SolveDistributedTraced is SolveDistributed with an explicit trace id: it
// is stamped on every frame this shard sends (so the legs of one solve
// stitch into a single cross-shard trace), and the Ctx's tracer — if any —
// additionally receives one "barrier" event per exchange. traceID zero means
// untraced frames; tracing never changes the solve.
func (n *Node) SolveDistributedTraced(ctx context.Context, c *par.Ctx, in *core.Instance, opts *primaldual.Options, solveID, traceID uint64) (*primaldual.Result, error) {
	var tracer par.Tracer
	if c != nil && (traceID != 0 || c.Tracing()) {
		tracer = c.Trace
	}
	var res *primaldual.Result
	err := n.RunExchange(solveID, traceID, tracer, func(ex *Exchange) error {
		var serr error
		res, serr = primaldual.Distributed(ctx, c, in, opts, n.self, n.tr.N(), ex)
		return serr
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunExchange claims the node's exchange slot for one solve, runs fn with a
// fresh Exchange wired to the frame dispatcher, and releases the slot when fn
// returns. It is how solvers other than the built-in primal-dual leg — the
// MPC coreset tree's barrier driver, tests — borrow the node's allgather.
// traceID is stamped on every outbound frame (zero = untraced); tracer, if
// non-nil, receives one "barrier" event per completed exchange.
//
// Registration takes the solve's early frames from the inbox in the same
// critical section, so a peer that started first costs nothing: its
// barrier-0 frame is deposited before fn runs, and one that races the drain
// is deduplicated by the Exchange. On completion the exchange stays
// registered (replaced by the next solve's): a shard that finishes first
// must keep answering NACKs for its final barriers, or a peer still
// recovering lost frames would starve into a spurious loud failure.
func (n *Node) RunExchange(solveID, traceID uint64, tracer par.Tracer, fn func(ex *Exchange) error) error {
	ex := NewExchange(n.tr, &n.seqs, solveID, n.timeout, n.retries)
	if traceID != 0 || tracer != nil {
		ex.SetTrace(traceID, tracer)
	}
	n.mu.Lock()
	if n.exBusy {
		n.mu.Unlock()
		return fmt.Errorf("cluster: shard %d already has a solve in flight", n.self)
	}
	n.ex, n.exBusy = ex, true
	early := n.takeEarly(solveID)
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		n.exBusy = false
		n.nacks += ex.Nacks()
		n.mu.Unlock()
	}()
	for from, f := range early {
		if f != nil {
			ex.deposit(from, f)
		}
	}
	return fn(ex)
}

// VirtualCluster is N Nodes over one VirtualFabric: the whole cluster —
// ring, replication, distributed solves, faults, crashes — inside one
// process, deterministically schedulable from a FaultPlan seed.
type VirtualCluster struct {
	Fabric *VirtualFabric
	nodes  []*Node
	ring   *Ring
}

// VirtualMemberID names virtual shard i; zero-padded so the ring's
// ID-sorted order equals numeric shard order.
func VirtualMemberID(i int) string { return fmt.Sprintf("vshard-%03d", i) }

// NewVirtualCluster builds an n-shard virtual cluster under plan.
// timeout/retries ≤ 0 take the exchange defaults — fault tests pass short
// timeouts so NACK ladders run in milliseconds.
func NewVirtualCluster(n int, plan FaultPlan, timeout time.Duration, retries int) (*VirtualCluster, error) {
	if n <= 0 || n > 999 {
		return nil, fmt.Errorf("cluster: virtual cluster size %d out of range", n)
	}
	members := make([]Member, n)
	for i := range members {
		members[i] = Member{ID: VirtualMemberID(i), Addr: fmt.Sprintf("virtual://%d", i)}
	}
	ring, err := NewRing(members, 0)
	if err != nil {
		return nil, err
	}
	vf := NewVirtualFabric(n, plan)
	vc := &VirtualCluster{Fabric: vf, ring: ring, nodes: make([]*Node, n)}
	for i := range vc.nodes {
		node, err := NewNode(members[i].ID, vf.Transport(i), ring, timeout, retries)
		if err != nil {
			vf.Close()
			return nil, err
		}
		vc.nodes[i] = node
	}
	return vc, nil
}

// Node returns shard i's Node; Ring the shared ring.
func (vc *VirtualCluster) Node(i int) *Node { return vc.nodes[i] }
func (vc *VirtualCluster) Ring() *Ring      { return vc.ring }
func (vc *VirtualCluster) N() int           { return len(vc.nodes) }

// Crash kills shard i: in-flight frames to it are lost, its sends vanish,
// and the ring routes its keyspace to live successors.
func (vc *VirtualCluster) Crash(i int) {
	vc.Fabric.Crash(i)
	vc.ring.SetAlive(vc.nodes[i].id, false)
}

// Restart revives shard i with its store intact (a warm restart: the
// process's disk survived, the network buffers did not).
func (vc *VirtualCluster) Restart(i int) {
	vc.Fabric.Restart(i)
	vc.ring.SetAlive(vc.nodes[i].id, true)
}

// Partition blocks the link between shards a and b in both directions;
// HealPartition restores it. The ring is untouched: both sides stay "alive",
// they just cannot talk — the asymmetric failure breakers exist for.
func (vc *VirtualCluster) Partition(a, b int)     { vc.Fabric.SetPartition(a, b, true) }
func (vc *VirtualCluster) HealPartition(a, b int) { vc.Fabric.SetPartition(a, b, false) }

// Slow adds reorder penalty (in frames) to shard i's inbound traffic;
// penalty 0 restores normal speed.
func (vc *VirtualCluster) Slow(i, penalty int) { vc.Fabric.SetSlow(i, penalty) }

// Close tears the fabric down and joins every dispatcher goroutine.
func (vc *VirtualCluster) Close() { vc.Fabric.Close() }

// Solve runs a distributed solve on every shard concurrently (each with
// `workers` par workers) and returns shard 0's Result after asserting every
// shard agreed bitwise. Any shard error — fault budget exhausted, lockstep
// violation, crash timeout — fails the whole solve loudly.
func (vc *VirtualCluster) Solve(ctx context.Context, in *core.Instance, opts *primaldual.Options, solveID uint64, workers int) (*primaldual.Result, error) {
	n := len(vc.nodes)
	results := make([]*primaldual.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &par.Ctx{Workers: workers}
			results[i], errs[i] = vc.nodes[i].SolveDistributed(ctx, c, in, opts, solveID)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !primaldual.ResultsBitwiseEqual(results[0], results[i]) {
			return nil, fmt.Errorf("cluster: shard %d diverged from shard 0", i)
		}
	}
	return results[0], nil
}
