package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/primaldual"
)

// testInstance mirrors the primaldual suite's uniform-box generator.
func testInstance(seed int64, nf, nc int) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	sp := metric.UniformBox(nil, rng, nf+nc, 2, 10)
	fac := make([]int, nf)
	cli := make([]int, nc)
	for i := range fac {
		fac[i] = i
	}
	for j := range cli {
		cli[j] = nf + j
	}
	return core.FromSpace(nil, sp, fac, cli, metric.RandomCosts(nil, rng, nf, 1, 6))
}

func mustParallel(t *testing.T, in *core.Instance, o *primaldual.Options) *primaldual.Result {
	t.Helper()
	res, err := primaldual.Parallel(context.Background(), &par.Ctx{}, in, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fastCluster builds a virtual cluster with millisecond-scale NACK ladders.
func fastCluster(t *testing.T, n int, plan FaultPlan) *VirtualCluster {
	t.Helper()
	vc, err := NewVirtualCluster(n, plan, 30*time.Millisecond, 60)
	if err != nil {
		t.Fatal(err)
	}
	return vc
}

// TestClusterSolveBitwiseEqualsParallel is the transported version of the
// primaldual conformance core: the same solve through real wire frames over
// the virtual fabric (perfect network) stays bitwise-identical to
// single-process pd-par at every shard count.
func TestClusterSolveBitwiseEqualsParallel(t *testing.T) {
	instances := map[string]*core.Instance{
		"uniform-small": testInstance(3, 6, 18),
		"uniform-mid":   testInstance(4, 10, 60),
	}
	for label, in := range instances {
		for _, seed := range []int64{0, 7} {
			for _, eps := range []float64{0.1, 0.3} {
				o := &primaldual.Options{Epsilon: eps, Seed: seed}
				want := mustParallel(t, in, o)
				for _, n := range []int{1, 2, 3, 5, 8} {
					vc := fastCluster(t, n, FaultPlan{})
					got, err := vc.Solve(context.Background(), in, o, uint64(seed)+1, 2)
					vc.Close()
					if err != nil {
						t.Fatalf("%s/seed%d/eps%g/%d shards: %v", label, seed, eps, n, err)
					}
					if !primaldual.ResultsBitwiseEqual(want, got) {
						t.Fatalf("%s/seed%d/eps%g/%d shards: cluster result diverged from pd-par", label, seed, eps, n)
					}
				}
			}
		}
	}
}

// TestClusterSolveUnderFaults: hostile fault plans — drops, duplicates,
// reordering, all at once — and the solve still completes bitwise-correct,
// recovering every lost frame through the NACK ladder. The fabric counters
// prove the plan actually fired.
func TestClusterSolveUnderFaults(t *testing.T) {
	in := testInstance(4, 8, 40)
	o := &primaldual.Options{Epsilon: 0.3, Seed: 1}
	want := mustParallel(t, in, o)
	plans := map[string]FaultPlan{
		"drop":    {Seed: 11, Drop: 0.15},
		"dup":     {Seed: 12, Dup: 0.35},
		"reorder": {Seed: 13, MaxDelay: 3},
		"storm":   {Seed: 14, Drop: 0.10, Dup: 0.20, MaxDelay: 2},
	}
	for label, plan := range plans {
		for _, n := range []int{2, 3, 5} {
			vc := fastCluster(t, n, plan)
			got, err := vc.Solve(context.Background(), in, o, 42, 2)
			st := vc.Fabric.Stats()
			vc.Close()
			if err != nil {
				t.Fatalf("%s/%d shards: %v", label, n, err)
			}
			if !primaldual.ResultsBitwiseEqual(want, got) {
				t.Fatalf("%s/%d shards: result diverged under faults", label, n)
			}
			if plan.Drop > 0 && st.Dropped == 0 {
				t.Fatalf("%s/%d shards: drop plan never dropped (sent %d)", label, n, st.Sent)
			}
			if plan.Dup > 0 && st.Duplicated == 0 {
				t.Fatalf("%s/%d shards: dup plan never duplicated (sent %d)", label, n, st.Sent)
			}
		}
	}
}

// TestClusterFaultPlanReplayable: the fabric's behaviour is a pure function
// of the plan seed and the frame sequence — replaying the identical sends
// yields identical fates and an identical per-node delivery order.
func TestClusterFaultPlanReplayable(t *testing.T) {
	run := func() ([]string, FabricStats) {
		vf := NewVirtualFabric(2, FaultPlan{Seed: 99, Drop: 0.2, Dup: 0.2, MaxDelay: 2})
		var mu sync.Mutex
		var got []string
		vf.Transport(1).SetHandler(func(f *Frame) {
			mu.Lock()
			got = append(got, fmt.Sprintf("%d:%d", f.Type, f.Seq))
			mu.Unlock()
		})
		tr := vf.Transport(0)
		for s := uint32(1); s <= 40; s++ {
			if err := tr.Send(1, &Frame{Type: FrameAck, From: 0, Seq: s, Body: EncodeAckBody(&AckBody{AckSeq: s})}); err != nil {
				t.Fatal(err)
			}
		}
		// Drain: wait until the dispatcher has delivered everything queued.
		deadline := time.After(2 * time.Second)
		for {
			st := vf.Stats()
			mu.Lock()
			n := len(got)
			mu.Unlock()
			if uint64(n) == st.Delivered {
				break
			}
			select {
			case <-deadline:
				t.Fatalf("drain stalled at %d/%d", n, st.Delivered)
			case <-time.After(time.Millisecond):
			}
		}
		st := vf.Stats()
		vf.Close()
		mu.Lock()
		defer mu.Unlock()
		return got, st
	}
	seq1, st1 := run()
	seq2, st2 := run()
	if st1 != st2 {
		t.Fatalf("replay changed fault stats: %+v vs %+v", st1, st2)
	}
	if st1.Dropped == 0 || st1.Duplicated == 0 {
		t.Fatalf("plan fired no faults: %+v", st1)
	}
	if len(seq1) != len(seq2) {
		t.Fatalf("replay changed delivery count: %d vs %d", len(seq1), len(seq2))
	}
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("replay diverged at delivery %d: %s vs %s", i, seq1[i], seq2[i])
		}
	}
}

// tracerFunc adapts a function to par.Tracer.
type tracerFunc func(par.TraceEvent)

func (f tracerFunc) Emit(ev par.TraceEvent) { f(ev) }

// solveLegs runs every shard's leg of one distributed solve concurrently,
// shard i under ctxFor(i), and returns each leg's result and error.
func solveLegs(vc *VirtualCluster, in *core.Instance, o *primaldual.Options, solveID uint64, ctxFor func(i int) *par.Ctx) ([]*primaldual.Result, []error) {
	n := vc.N()
	results := make([]*primaldual.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = vc.Node(i).SolveDistributed(context.Background(), ctxFor(i), in, o, solveID)
		}(i)
	}
	wg.Wait()
	return results, errs
}

// TestClusterCrashMidSolveFailsLoud: a shard that dies mid-solve turns into
// an explicit error on every shard — never a wrong or partial result. The
// crash fires at a fixed point of the protocol, right after shard 2 clears
// barrier 2, so the test does not depend on how fast the solve runs.
func TestClusterCrashMidSolveFailsLoud(t *testing.T) {
	in := testInstance(4, 8, 40)
	o := &primaldual.Options{Epsilon: 0.3, Seed: 1}
	vc, err := NewVirtualCluster(3, FaultPlan{}, 10*time.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	var crashed atomic.Bool
	crash := tracerFunc(func(ev par.TraceEvent) {
		if ev.Phase == "barrier" && ev.Round == 2 && !crashed.Swap(true) {
			vc.Crash(2)
		}
	})
	results, errs := solveLegs(vc, in, o, 7, func(i int) *par.Ctx {
		c := &par.Ctx{Workers: 2}
		if i == 2 {
			c.Trace = crash
		}
		return c
	})
	if !crashed.Load() {
		t.Fatal("solve never reached barrier 2; the crash did not fire")
	}
	for i := range errs {
		if errs[i] == nil || results[i] != nil {
			t.Fatalf("shard %d: solve with a crashed shard returned a result", i)
		}
	}
}

// TestClusterFaultFreeSolveSendsNoNack: on a perfect network every shard
// sends exactly one frame to each peer per barrier — no NACK, no
// retransmit — even though the legs register their solve in any order. The
// minute-long timeout makes any timer-driven recovery show up as a stall
// and as extra frames.
func TestClusterFaultFreeSolveSendsNoNack(t *testing.T) {
	in := testInstance(4, 10, 60)
	o := &primaldual.Options{Epsilon: 0.3, Seed: 7}
	want := mustParallel(t, in, o)
	for _, n := range []int{3, 5} {
		vc, err := NewVirtualCluster(n, FaultPlan{}, time.Minute, 0)
		if err != nil {
			t.Fatal(err)
		}
		var barriers atomic.Uint64
		count := tracerFunc(func(ev par.TraceEvent) {
			if ev.Phase == "barrier" {
				barriers.Add(1)
			}
		})
		results, errs := solveLegs(vc, in, o, 5, func(i int) *par.Ctx {
			c := &par.Ctx{Workers: 2}
			if i == 0 {
				c.Trace = count
			}
			return c
		})
		st := vc.Fabric.Stats()
		var nacks int64
		for i := 0; i < n; i++ {
			nacks += vc.Node(i).Nacks()
		}
		vc.Close()
		for i := range errs {
			if errs[i] != nil {
				t.Fatalf("%d shards: shard %d: %v", n, i, errs[i])
			}
			if !primaldual.ResultsBitwiseEqual(want, results[i]) {
				t.Fatalf("%d shards: shard %d diverged from pd-par", n, i)
			}
		}
		b := barriers.Load()
		if b == 0 {
			t.Fatalf("%d shards: no barrier events traced", n)
		}
		frames := uint64(n*(n-1)) * b
		if st.Sent != frames || st.Delivered != frames {
			t.Fatalf("%d shards, %d barriers: sent %d, delivered %d, want %d each (no NACK or retransmit)",
				n, b, st.Sent, st.Delivered, frames)
		}
		if nacks != 0 {
			t.Fatalf("%d shards: %d NACKs on a perfect network", n, nacks)
		}
	}
}

// TestNodeInboxBounded: round frames for solves the node has not registered
// are buffered at most one per sender and for at most inboxSolves solves,
// whatever a peer floods; malformed frames and stray NACKs are dropped; and
// a real solve through the same node afterwards is still bitwise pd-par.
func TestNodeInboxBounded(t *testing.T) {
	const n = 3
	vc := fastCluster(t, n, FaultPlan{})
	defer vc.Close()
	node := vc.Node(0)
	check := func(when string) {
		t.Helper()
		node.mu.Lock()
		defer node.mu.Unlock()
		if len(node.inbox) > inboxSolves {
			t.Fatalf("%s: %d pending solves, cap %d", when, len(node.inbox), inboxSolves)
		}
		for _, es := range node.inbox {
			held := 0
			for _, f := range es.frames {
				if f != nil {
					held++
				}
			}
			if held > n-1 || es.frames[0] != nil {
				t.Fatalf("%s: solve %d holds %d frames (self frame %v), cap %d", when, es.id, held, es.frames[0] != nil, n-1)
			}
		}
	}
	for id := uint64(100); id < 120; id++ {
		for from := int32(0); from <= n; from++ {
			for k := int32(0); k < 3; k++ {
				body := EncodeRoundBody(&RoundBody{SolveID: id, Frame: primaldual.ExchangeFrame{Index: k, Phase: primaldual.PhaseFree}})
				node.HandleFrame(&Frame{Type: FrameRound, From: from, Seq: uint32(k), Body: body})
				check(fmt.Sprintf("solve %d from %d barrier %d", id, from, k))
			}
		}
	}
	node.HandleFrame(&Frame{Type: FrameRound, From: 1, Body: []byte{1, 2, 3}})
	node.HandleFrame(&Frame{Type: FrameNack, From: 1, Body: EncodeNackBody(&NackBody{SolveID: 999, Index: 0})})
	node.HandleFrame(&Frame{Type: FrameNack, From: 1, Body: []byte{1}})
	check("after junk")

	in := testInstance(3, 6, 18)
	o := &primaldual.Options{Epsilon: 0.3, Seed: 0}
	got, err := vc.Solve(context.Background(), in, o, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !primaldual.ResultsBitwiseEqual(mustParallel(t, in, o), got) {
		t.Fatal("solve after an inbox flood diverged from pd-par")
	}
	check("after solve")
}

// TestClusterReplication: puts land on the key's owner and successor, route
// around dead members, survive a crash/restart warm, and still converge
// under frame loss.
func TestClusterReplication(t *testing.T) {
	ctx := context.Background()
	vc := fastCluster(t, 4, FaultPlan{Seed: 5, Drop: 0.2})
	defer vc.Close()
	keys := make([]string, 24)
	for k := range keys {
		keys[k] = fmt.Sprintf("sha256:%04d", k)
		if err := vc.Node(0).Put(ctx, keys[k], []byte(keys[k]+"-payload"), 2); err != nil {
			t.Fatalf("put %q: %v", keys[k], err)
		}
	}
	ring := vc.Ring()
	for _, key := range keys {
		for _, m := range ring.Successors(key, 2) {
			idx, _ := ring.Index(m.ID)
			if v, ok := vc.Node(idx).Get(key); !ok || string(v) != key+"-payload" {
				t.Fatalf("replica %q missing %q", m.ID, key)
			}
		}
	}
	// Crash the owner of keys[0]; new puts for its keyspace route to live
	// successors, and after a warm restart its pre-crash entries are intact.
	owner, _ := ring.Owner(keys[0])
	victim, _ := ring.Index(owner.ID)
	before := vc.Node(victim).StoreLen()
	vc.Crash(victim)
	if err := vc.Node((victim+1)%4).Put(ctx, keys[0]+"-again", []byte("x"), 2); err != nil {
		t.Fatalf("put with dead owner: %v", err)
	}
	for _, m := range ring.Successors(keys[0]+"-again", 2) {
		if m.ID == owner.ID {
			t.Fatal("dead member chosen as replica")
		}
	}
	vc.Restart(victim)
	if got := vc.Node(victim).StoreLen(); got != before {
		t.Fatalf("warm restart lost entries: %d vs %d", got, before)
	}
	if _, ok := vc.Node(victim).Get(keys[0]); !ok {
		t.Fatalf("restarted node lost %q", keys[0])
	}
}

// TestClusterSolveAfterHeal: crash a shard, restart it warm, and the next
// distributed solve across all shards is correct again.
func TestClusterSolveAfterHeal(t *testing.T) {
	in := testInstance(3, 6, 18)
	o := &primaldual.Options{Epsilon: 0.3, Seed: 0}
	want := mustParallel(t, in, o)
	vc := fastCluster(t, 3, FaultPlan{})
	defer vc.Close()
	vc.Crash(1)
	vc.Restart(1)
	got, err := vc.Solve(context.Background(), in, o, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !primaldual.ResultsBitwiseEqual(want, got) {
		t.Fatal("post-heal solve diverged")
	}
}

// TestClusterGoroutineSettle mirrors the serve-layer drain tests: building,
// exercising, and closing a virtual cluster leaves no goroutines behind.
func TestClusterGoroutineSettle(t *testing.T) {
	par.Warm(runtime.GOMAXPROCS(0) + 4)
	runtime.GC()
	before := runtime.NumGoroutine()
	for round := 0; round < 2; round++ {
		vc := fastCluster(t, 5, FaultPlan{Seed: 3, Drop: 0.1, Dup: 0.1, MaxDelay: 1})
		in := testInstance(3, 6, 18)
		if _, err := vc.Solve(context.Background(), in, &primaldual.Options{Epsilon: 0.3}, 1, 2); err != nil {
			t.Fatal(err)
		}
		if err := vc.Node(2).Put(context.Background(), "k", []byte("v"), 2); err != nil {
			t.Fatal(err)
		}
		vc.Crash(4)
		vc.Restart(4)
		vc.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not settle: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExchangeFailsLoudOnSilentPeer: a peer that never shows up for a
// barrier is an explicit error naming it, after the full NACK ladder.
func TestExchangeFailsLoudOnSilentPeer(t *testing.T) {
	vf := NewVirtualFabric(2, FaultPlan{})
	defer vf.Close()
	tr := vf.Transport(0)
	var seqs seqSource
	ex := NewExchange(tr, &seqs, 1, 5*time.Millisecond, 2)
	tr.SetHandler(ex.HandleFrame)
	start := time.Now()
	_, err := ex.Exchange(context.Background(), &primaldual.ExchangeFrame{Index: 0, Phase: primaldual.PhaseFree})
	if err == nil {
		t.Fatal("exchange with a silent peer succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("loud failure took %v", time.Since(start))
	}
}

// TestHTTPTransportLoopback: the HTTP transport's local fast path runs the
// same encode/decode/validate pipe as the remote one.
func TestHTTPTransportLoopback(t *testing.T) {
	tr, err := NewHTTPTransport(0, []string{"127.0.0.1:1", "127.0.0.1:2"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got *Frame
	tr.SetHandler(func(f *Frame) { got = f })
	f := &Frame{Type: FrameAck, From: 0, Seq: 9, Body: EncodeAckBody(&AckBody{AckSeq: 9})}
	if err := tr.Send(0, f); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Seq != 9 || got.Type != FrameAck {
		t.Fatalf("loopback delivered %+v", got)
	}
	if err := tr.Deliver([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted by Deliver")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(0, f); err == nil {
		t.Fatal("send after close succeeded")
	}
}

// TestClusterQuorumPut: with one replica target dead mid-write, the quorum
// put still succeeds once a majority acked, reports the shortfall, and a
// strict PutKeyed on the same placement fails loudly.
func TestClusterQuorumPut(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	vc := fastCluster(t, 3, FaultPlan{})
	defer vc.Close()
	ring := vc.Ring()

	key := "sha256:quorum-key"
	targets := ring.Successors(key, 3)
	if len(targets) != 3 {
		t.Fatalf("want 3 targets, got %d", len(targets))
	}
	// Kill a non-self replica at the fabric only (ring still thinks it is
	// alive — the interesting case: a peer that is listed but silent).
	var writer, victim int
	writer, _ = ring.Index(targets[0].ID)
	victim, _ = ring.Index(targets[2].ID)
	if victim == writer {
		victim, _ = ring.Index(targets[1].ID)
	}
	vc.Fabric.Crash(victim)

	acked, total, err := vc.Node(writer).PutKeyedQuorum(ctx, key, key, []byte("v"), 3, 0)
	if err != nil {
		t.Fatalf("quorum put with one silent replica: %v", err)
	}
	if total != 3 || acked != 2 {
		t.Fatalf("acked %d of %d, want 2 of 3", acked, total)
	}
	// The strict path must refuse the same placement.
	if err := vc.Node(writer).PutKeyed(ctx, key, key+"-strict", []byte("v"), 3); err == nil {
		t.Fatal("strict PutKeyed succeeded with a silent replica")
	}
	// Now silence a second replica: a majority is unreachable and the quorum
	// put fails loudly.
	var second int
	for i := 0; i < 3; i++ {
		idx, _ := ring.Index(targets[i].ID)
		if idx != writer && idx != victim {
			second = idx
		}
	}
	vc.Fabric.Crash(second)
	if _, _, err := vc.Node(writer).PutKeyedQuorum(ctx, key, key+"-2", []byte("v"), 3, 0); err == nil {
		t.Fatal("quorum put succeeded with majority unreachable")
	}
}

// TestClusterPartitionHealsAndSlowPeerReorders: a partitioned link silently
// eats frames (strict puts across it fail loudly), healing restores acks,
// and a slow peer only reorders — it never loses data.
func TestClusterPartitionAndSlowPeer(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	vc := fastCluster(t, 3, FaultPlan{})
	defer vc.Close()

	vc.Partition(0, 1)
	if err := vc.Node(0).replicate(ctx, 1, EncodePutBody(&PutBody{Key: "k", Value: []byte("v")})); err == nil {
		t.Fatal("replicate across a partition succeeded")
	}
	if got := vc.Fabric.Stats().Partitioned; got == 0 {
		t.Fatal("partition dropped no frames")
	}
	vc.HealPartition(0, 1)
	if err := vc.Node(0).replicate(ctx, 1, EncodePutBody(&PutBody{Key: "k", Value: []byte("v")})); err != nil {
		t.Fatalf("replicate after heal: %v", err)
	}
	if v, ok := vc.Node(1).Get("k"); !ok || string(v) != "v" {
		t.Fatal("healed link did not deliver the put")
	}

	// Slow peer: heavy reorder penalty on shard 2's inbound traffic; acked
	// retransmits still land every put.
	vc.Slow(2, 50)
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("slow-%d", i)
		if err := vc.Node(0).replicate(ctx, 2, EncodePutBody(&PutBody{Key: key, Value: []byte(key)})); err != nil {
			t.Fatalf("replicate to slow peer: %v", err)
		}
	}
	vc.Slow(2, 0)
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("slow-%d", i)
		if v, ok := vc.Node(2).Get(key); !ok || string(v) != key {
			t.Fatalf("slow peer missing %q", key)
		}
	}
}
