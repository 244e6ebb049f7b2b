package main

// The traced run's layer passes. After each op the client calls the public
// function of every layer the server ran for that op, in the server's
// order, as child spans of the op, and records each layer's time and
// counters. No tracing runs inside the program: work, span and rounds come
// from par.Tally and obs.Recorder handed in through par.Ctx.

import (
	"bytes"
	"context"
	"math"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/coreset"
	"repro/internal/durable"
	"repro/internal/greedy"
	"repro/internal/lp"
	"repro/internal/metric"
	"repro/internal/mpc"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/primaldual"
	"repro/internal/rounding"
)

// eps is the solvers' default ε, the one every request runs with.
const eps = 0.3

// layers collects per-layer samples. A nil *layers records nothing, which
// is how untraced runs skip every pass.
type layers struct {
	mu   sync.Mutex
	vals map[string][]float64
	tr   *tracer
	dur  *durable.Store
	// window is the workload's servers over the timed window; ring is the
	// ring whose frame RTTs and resilience counters the run reports.
	window, ring ringStats
}

func newLayers(tr *tracer, dir string) (*layers, error) {
	st, err := durable.Open(dir)
	if err != nil {
		return nil, err
	}
	return &layers{vals: map[string][]float64{}, tr: tr, dur: st}, nil
}

func (l *layers) add(name string, v float64) {
	if l == nil || math.IsNaN(v) {
		return
	}
	l.mu.Lock()
	l.vals[name] = append(l.vals[name], v)
	l.mu.Unlock()
}

func (l *layers) count(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.vals[name])
}

// busy charges a layer pass's wall time to tracing overhead.
func (l *layers) busy(start time.Time) { l.tr.busy.Add(int64(time.Since(start))) }

// solved records what a solve response reports about the server side.
func (l *layers) solved(endpoint string, httpMS float64, sr *solveResp) {
	if l == nil {
		return
	}
	switch {
	case endpoint == "serve.pd_dist":
		l.add("serve.pd_dist_ms", httpMS)
	case sr.Cached:
		l.add("serve.solve_hit_ms", httpMS)
	default:
		l.add("serve.solve_miss_ms", httpMS)
		l.add("serve.overhead_ms", httpMS-sr.rep.WallMS)
	}
}

// putPass runs what POST /instances runs: decode, hash, persist.
func (l *layers) putPass(op sp, u *ufl, hash string) {
	if l == nil {
		return
	}
	defer l.busy(time.Now())
	s := op.child("core.decode")
	in, err := core.ReadInstance(bytes.NewReader(u.body))
	l.add("core.decode_ms", s.end())
	if err != nil {
		return
	}
	s = op.child("core.hash")
	h, err := core.InstanceHash(in)
	l.add("core.hash_ms", s.end())
	if err != nil || (hash != "" && h != hash) {
		return
	}
	var buf bytes.Buffer
	if core.WriteInstance(&buf, in) != nil {
		return
	}
	s = op.child("durable.put")
	if _, err := l.dur.Put(durable.KindInstances, h, buf.Bytes()); err == nil {
		l.add("durable.put_ms", s.end())
		l.add("durable.bytes_per_put", float64(len(durable.EncodeRecord(buf.Bytes()))))
	}
	_ = l.dur.Delete(durable.KindInstances, h) // keep every put a fresh write
}

// dense decodes u and densifies a point-form instance as the registry
// solvers do.
func (l *layers) dense(op sp, u *ufl) *core.Instance {
	s := op.child("core.decode")
	in, err := core.ReadInstance(bytes.NewReader(u.body))
	l.add("core.decode_ms", s.end())
	if err != nil || in.D != nil {
		return in
	}
	s = op.child("core.densify")
	d, err := in.DensifiedCap(nil, core.DenseLimit)
	l.add("core.densify_ms", s.end())
	if err != nil {
		return nil
	}
	return d
}

func tallied() (*par.Ctx, *par.Tally, *obs.Recorder) {
	t, rec := &par.Tally{}, &obs.Recorder{}
	return &par.Ctx{Tally: t, Trace: rec}, t, rec
}

// solvePass runs the solver layers behind one /solve.
func (l *layers) solvePass(op sp, u *ufl, solver string) {
	if l == nil {
		return
	}
	defer l.busy(time.Now())
	in := l.dense(op, u)
	if in == nil {
		return
	}
	ctx := context.Background()
	switch solver {
	case "greedy-par":
		s := op.child("metric.sorted_orders")
		metric.SortedOrders(&par.Ctx{}, in.D)
		sortMS := s.end()
		l.add("metric.sorted_orders_ms", sortMS)
		c, t, rec := tallied()
		s = op.child("greedy.solve")
		res, err := greedy.Parallel(ctx, c, in, &greedy.Options{Epsilon: eps, Seed: solveSeed})
		gMS := s.end()
		if err != nil {
			return
		}
		l.add("greedy.solve_ms", gMS)
		l.addCost("greedy", t, rec, res.OuterRounds)
		c, t, rec = tallied()
		s = op.child("primaldual.solve")
		pres, err := primaldual.Parallel(ctx, c, in, &primaldual.Options{Epsilon: eps, Seed: solveSeed})
		pMS := s.end()
		if err != nil {
			return
		}
		// Both solvers presort the matrix once; the share is of their sum.
		l.add("metric.presort_share", 2*sortMS/(gMS+pMS))
		l.add("primaldual.solve_ms", pMS)
		l.addCost("primaldual", t, rec, pres.Iterations)
	case "pd-par":
		c, t, rec := tallied()
		s := op.child("primaldual.solve")
		res, err := primaldual.Parallel(ctx, c, in, &primaldual.Options{Epsilon: eps, Seed: solveSeed})
		if err == nil {
			l.add("primaldual.solve_ms", s.end())
			l.addCost("primaldual", t, rec, res.Iterations)
		}
	case "lp-round":
		s := op.child("lp.solve")
		frac, err := lp.SolveFacility(in)
		if err != nil {
			return
		}
		l.add("lp.solve_ms", s.end())
		s = op.child("rounding.round")
		res := rounding.Round(&par.Ctx{}, in, frac, &rounding.Options{Epsilon: eps, Seed: solveSeed})
		l.add("rounding.round_ms", s.end())
		if frac.Value > 0 {
			l.add("lp.round_gap", res.Sol.Cost()/frac.Value)
		}
	}
}

func (l *layers) addCost(layer string, t *par.Tally, rec *obs.Recorder, rounds int) {
	c := t.Snapshot()
	l.add(layer+".work", float64(c.Work))
	l.add(layer+".span", float64(c.Span))
	if r := rec.Rounds(); r > 0 {
		rounds = r
	}
	l.add(layer+".rounds", float64(rounds))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// distPass runs the distributed primal-dual on a three-shard virtual
// cluster, the library form of the ring's pd-dist. Its CPU share is the
// whole process's, so it runs only where nothing else does (the probe).
func (l *layers) distPass(op sp, u *ufl) {
	if l == nil {
		return
	}
	defer l.busy(time.Now())
	in := l.dense(op, u)
	if in == nil {
		return
	}
	vc, err := cluster.NewVirtualCluster(3, cluster.FaultPlan{}, 0, 0)
	if err != nil {
		return
	}
	defer vc.Close()
	before := vc.Fabric.Stats()
	cpu0 := cpuTime()
	s := op.child("cluster.solve")
	_, err = vc.Solve(context.Background(), in, &primaldual.Options{Epsilon: eps, Seed: solveSeed}, 1, 0)
	wall := s.end()
	cpu := ms(cpuTime() - cpu0)
	if err != nil {
		return
	}
	after := vc.Fabric.Stats()
	l.add("cluster.solve_ms", wall)
	l.add("cluster.cpu_ratio", cpu/wall)
	l.add("cluster.frames_per_solve", float64(after.Sent-before.Sent))
	if sent := after.Sent - before.Sent; sent > 0 {
		l.add("cluster.delivered_ratio", float64(after.Delivered-before.Delivered)/float64(sent))
	}
}

// streamPass runs the coreset tree behind /solve-stream, then one leaf
// coreset build on the stream's first chunk.
func (l *layers) streamPass(op sp, ks *kstream, budget int64) {
	if l == nil {
		return
	}
	defer l.busy(time.Now())
	c, _, _ := tallied()
	o := mpc.Options{BudgetBytes: budget, Seed: solveSeed}
	pick := func(h *mpc.Header) (int, core.KObjective, error) { return h.K, core.KMedian, nil }
	s := op.child("mpc.solve")
	res, err := mpc.SolveStream(context.Background(), c, bytes.NewReader(ks.body), o, pick)
	if err != nil {
		return
	}
	l.add("mpc.solve_ms", s.end())
	l.add("mpc.rounds", float64(res.Rounds))
	l.add("mpc.chunks", float64(res.Chunks))
	l.add("mpc.merge_bytes", float64(res.MergeBytes))
	l.add("mpc.peak_bytes", float64(res.PeakBytes))
	// The leaf the tree built first: the first ⌈n/chunks⌉ points, at the
	// coreset size the tree derives from the budget.
	ki, err := core.ReadKInstance(bytes.NewReader(ks.body))
	if err != nil || res.Chunks == 0 {
		return
	}
	e, ok := ki.Space().(*metric.Euclidean)
	if !ok {
		return
	}
	per := (ks.n + res.Chunks - 1) / res.Chunks
	size := int(math.Sqrt(float64(budget) / 8))
	size = max(64, min(size, core.DenseLimit))
	chunk := &metric.Euclidean{Dim: e.Dim, Coords: e.Coords[:per*e.Dim]}
	s = op.child("coreset.build")
	cs, err := coreset.Build(context.Background(), &par.Ctx{}, chunk, ks.k, core.KMedian, nil,
		coreset.Options{Size: size, Seed: solveSeed})
	if err != nil {
		return
	}
	l.add("coreset.build_ms", s.end())
	l.add("coreset.size", float64(cs.Len()))
}
