package facloc

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/coreset"
	"repro/internal/metric"
	"repro/internal/mpc"
	"repro/internal/par"
)

// MPCOptions configures the beyond-RAM solving layer (internal/mpc): chunk
// size, memory budget, and per-node coreset size of the composable coreset
// tree. The zero value auto-sizes everything.
type MPCOptions struct {
	// ChunkPoints is the streaming chunk size in points (0 = derived from
	// BudgetBytes, or the mpc default). It is a quality parameter like ε:
	// changing it changes which coreset is sampled, never reproducibility.
	ChunkPoints int
	// BudgetBytes caps the accounted footprint of every component of the run;
	// a component that cannot fit is a loud mpc.ErrBudget error, never an OOM.
	BudgetBytes int64
	// CoresetSize is the per-node coreset size (0 = auto; under a budget the
	// auto size keeps the root's dense sub-instance inside the budget).
	CoresetSize int
	// UFLSampleK is the nominal client-clustering k the sensitivity sampler
	// targets on UFL streams, where no k exists in the instance (0 = 16).
	UFLSampleK int
}

func (mo MPCOptions) uflSampleK() int {
	if mo.UFLSampleK > 0 {
		return mo.UFLSampleK
	}
	return 16
}

// mpc lowers the facade options into the subsystem's option set; the solve
// seed and ε thread through so one Options value drives the whole pipeline.
func (mo MPCOptions) mpc(o Options) mpc.Options {
	return mpc.Options{
		ChunkPoints: mo.ChunkPoints,
		BudgetBytes: mo.BudgetBytes,
		CoresetSize: mo.CoresetSize,
		Epsilon:     o.Epsilon,
		Seed:        o.Seed,
	}
}

// mpcGuarantee composes an inner solver's guarantee with the coreset tree's
// distortion: each sampling level multiplies (1+ε), so effEps is the composed
// (1+ε)^levels−1 slack — 0 for identity runs, where the composition is exact.
func mpcGuarantee(inner Guarantee, effEps float64) Guarantee {
	f := inner.Factor
	if inner.Exact {
		f = 1
	}
	return Guarantee{
		Factor:   f * (1 + effEps),
		EpsSlack: inner.EpsSlack,
		Note:     fmt.Sprintf("%s × mpc coreset tree (1+%.3g) composed distortion", inner.Note, effEps),
	}
}

// mpcKSolver runs the composable coreset tree over a resident instance's
// point space, hands the root coreset to the inner solver, and evaluates the
// lifted centers on the full instance. Small instances whose tree degenerates
// to the identity short-circuit to the inner (direct) solve.
type mpcKSolver struct {
	name  string
	inner KSolver
	mo    MPCOptions
	// rounds overrides the round driver (nil = Local); the conformance suite
	// injects ClusterRounds here to pin cluster and local runs to each other.
	rounds mpc.Rounds
}

// MPC wraps a k-clustering solver in the composable coreset tree under the
// given options. It is the programmatic form of the registry's *-mpc and
// *-coreset entries: a single coreset is the one-leaf tree, i.e. MPC with a
// ChunkPoints at least the instance size.
func MPC(inner KSolver, mo MPCOptions) KSolver {
	return &mpcKSolver{name: inner.Name() + "-mpc", inner: inner, mo: mo}
}

// MPCUFL is the UFL counterpart of MPC.
func MPCUFL(inner Solver, mo MPCOptions) Solver {
	return &mpcSolver{name: inner.Name() + "-mpc", inner: inner, mo: mo}
}

func roundsOrLocal(r mpc.Rounds) mpc.Rounds {
	if r != nil {
		return r
	}
	return mpc.Local{}
}

func (s *mpcKSolver) Name() string         { return s.name }
func (s *mpcKSolver) Objective() Objective { return s.inner.Objective() }
func (s *mpcKSolver) Guarantee() Guarantee {
	// Static view: one sampling level at the nominal ε. Per-run reports
	// compose the actual tree depth (see SolveMPCStream).
	return mpcGuarantee(s.inner.Guarantee(), mpc.Options{}.Epsilon01())
}

func (s *mpcKSolver) SolveK(ctx context.Context, pc *par.Ctx, ki *core.KInstance, opts Options) (*KSolution, error) {
	obj := core.KObjective(s.inner.Objective())
	tr, err := mpc.SolveTree(ctx, pc, ki.Space(), ki.K, obj, ki.Weight, s.mo.mpc(opts), roundsOrLocal(s.rounds))
	if err != nil {
		return nil, err
	}
	if tr.Identity && ki.Dist != nil {
		// The root coreset is the whole (already dense) instance: the tree is
		// the identity and the inner solve is the direct solve.
		return s.inner.SolveK(ctx, pc, ki, opts)
	}
	pts := make([]int, tr.Root.Len())
	for i, id := range tr.Root.Ids {
		pts[i] = int(id)
	}
	centers, _, err := solveKRoot(ctx, pc, s.inner, ki.Space(), pts, tr.Root.Weight, ki.K, &tr.Counters, opts)
	if err != nil {
		return nil, err
	}
	return core.EvalCenters(pc, ki, centers, obj), nil
}

// mpcSolver is the UFL counterpart: the tree reduces the clients of a
// point-backed instance to a weighted root coreset, the inner solver runs on
// the pruned facilities × root-clients sub-instance, and the open set lifts
// back to a full nearest-open assignment. Dense-backed instances pass through.
type mpcSolver struct {
	name   string
	inner  Solver
	mo     MPCOptions
	rounds mpc.Rounds
}

func (s *mpcSolver) Name() string { return s.name }
func (s *mpcSolver) Guarantee() Guarantee {
	return mpcGuarantee(s.inner.Guarantee(), mpc.Options{}.Epsilon01())
}

func (s *mpcSolver) Solve(ctx context.Context, pc *par.Ctx, in *core.Instance, opts Options) (*Solution, error) {
	if in.Points == nil {
		return s.inner.Solve(ctx, pc, in, opts)
	}
	cli := &metric.Subset[int]{Space: in.Points, Idx: in.CliIdx}
	tr, err := mpc.SolveTree(ctx, pc, cli, s.mo.uflSampleK(), core.KMedian, in.CWeight, s.mo.mpc(opts), roundsOrLocal(s.rounds))
	if err != nil {
		return nil, err
	}
	pts := make([]int, tr.Root.Len())
	for i, id := range tr.Root.Ids {
		pts[i] = in.CliIdx[id]
	}
	open, _, err := solveUFLRoot(ctx, pc, s.inner, in.Points, in.FacIdx, in.FacCost, pts, tr.Root.Weight, &tr.Counters, opts)
	if err != nil {
		return nil, err
	}
	return core.EvalOpen(pc, in, open), nil
}

// solveKRoot is the root step of every k-clustering coreset solve, resident
// or streamed: account the s×s sub-instance against the run's budget, solve
// the weighted root coreset (points pts of sp, weights w) with inner, and map
// the chosen centers back to points of sp. value is the inner objective on
// the coreset.
func solveKRoot(ctx context.Context, c *par.Ctx, inner KSolver, sp metric.Space, pts []int, w []float64, k int, ct *mpc.Counters, opts Options) (centers []int, value float64, err error) {
	s := len(pts)
	if err := ct.AccountComponent("root sub-instance", int64(s)*int64(s)*8); err != nil {
		return nil, 0, err
	}
	sub := &core.KInstance{N: s, K: min(k, s), Dist: metric.SubmatrixRows(c, sp, pts, pts), Weight: w}
	sol, err := inner.SolveK(ctx, c, sub, opts)
	if err != nil {
		return nil, 0, err
	}
	if err := par.CtxErr(ctx); err != nil {
		return nil, 0, err
	}
	centers = make([]int, len(sol.Centers))
	for a, ci := range sol.Centers {
		centers[a] = pts[ci]
	}
	return centers, sol.Value, nil
}

// solveUFLRoot is the UFL root step, resident or streamed. Facilities fac
// (opening costs cost) and root clients cli are points of sp. The facilities
// are pruned to each root client's nearest few plus the cheapest, so the
// sub-instance stays small however many facilities there are; the pruned ×
// root sub-instance is accounted, solved with inner, and its open set mapped
// back to positions in fac.
func solveUFLRoot(ctx context.Context, c *par.Ctx, inner Solver, sp metric.Space, fac []int, cost []float64, cli []int, w []float64, ct *mpc.Counters, opts Options) (open []int, sub *Solution, err error) {
	keep, err := coreset.PruneFacilities(ctx, c, sp, fac, cost, cli)
	if err != nil {
		return nil, nil, err
	}
	if err := ct.AccountComponent("root sub-instance", int64(len(keep))*int64(len(cli))*8); err != nil {
		return nil, nil, err
	}
	facPts := make([]int, len(keep))
	costs := make([]float64, len(keep))
	for a, i := range keep {
		facPts[a], costs[a] = fac[i], cost[i]
	}
	sub, err = inner.Solve(ctx, c, &core.Instance{
		NF: len(keep), NC: len(cli), FacCost: costs,
		D: metric.SubmatrixRows(c, sp, facPts, cli), CWeight: w,
	}, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := par.CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	open = make([]int, len(sub.Open))
	for a, i := range sub.Open {
		open[a] = keep[i]
	}
	return open, sub, nil
}

// registerMPC adds the coreset-tree entries to the registry: the *-mpc
// solvers, and the *-coreset solvers — the same tree pinned to one leaf, so
// the whole instance reduces to a single coreset. Called at the end of the
// solvers.go init, after the inner solvers exist.
func registerMPC() {
	mustK := func(name string) KSolver {
		s, ok := LookupK(name)
		if !ok {
			panic("facloc: mpc registration before " + name)
		}
		return s
	}
	must := func(name string) Solver {
		s, ok := Lookup(name)
		if !ok {
			panic("facloc: mpc registration before " + name)
		}
		return s
	}
	RegisterK(&mpcKSolver{name: "kmedian-mpc", inner: mustK("kmedian")})
	RegisterK(&mpcKSolver{name: "kmeans-mpc", inner: mustK("kmeans")})
	Register(&mpcSolver{name: "greedy-mpc", inner: must("greedy-par")})

	oneLeaf := MPCOptions{ChunkPoints: math.MaxInt32}
	for _, name := range []string{"kmedian", "kmeans", "kcenter"} {
		RegisterK(&mpcKSolver{name: name + "-coreset", inner: mustK(name), mo: oneLeaf})
	}
	Register(&mpcSolver{name: "greedy-coreset", inner: must("greedy-par"), mo: oneLeaf})
}

// ParseByteSize parses a human byte size: a plain integer (bytes) or one
// with a binary suffix — "8MiB", "64KiB", "2GiB" (also accepted: K/M/G and
// KB/MB/GB, all binary). Shared by the -budget CLI flags and the
// /solve-stream budget parameter.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	upper := strings.ToUpper(t)
	for _, sfx := range []struct {
		s string
		m int64
	}{
		{"GIB", 1 << 30}, {"MIB", 1 << 20}, {"KIB", 1 << 10},
		{"GB", 1 << 30}, {"MB", 1 << 20}, {"KB", 1 << 10},
		{"G", 1 << 30}, {"M", 1 << 20}, {"K", 1 << 10},
	} {
		if strings.HasSuffix(upper, sfx.s) {
			mult = sfx.m
			t = strings.TrimSpace(t[:len(t)-len(sfx.s)])
			break
		}
	}
	v, err := strconv.ParseInt(t, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("facloc: bad byte size %q", s)
	}
	if v > (1<<63-1)/mult {
		return 0, fmt.Errorf("facloc: byte size %q overflows", s)
	}
	return v * mult, nil
}

// MPCReport is the outcome of a streamed beyond-RAM solve: the solution in
// coordinate form (the stream is gone, so there are no ground-set indices to
// report), the composed guarantee over the actual tree depth, and the run's
// budget counters. Estimate is the inner solver's objective on the weighted
// root coreset — an estimate of the true cost within the composed distortion,
// reported without a second pass over the stream.
type MPCReport struct {
	Solver    string    `json:"solver"`
	Guarantee Guarantee `json:"guarantee"`
	Kind      string    `json:"kind"`
	N         int       `json:"n"`
	K         int       `json:"k,omitempty"`
	NF        int       `json:"nf,omitempty"`
	Dim       int       `json:"dim"`
	// Centers holds the chosen centers' coordinates (k×dim flat) for
	// k-clustering streams; Open the chosen facility indices for UFL streams.
	Centers []float64 `json:"centers,omitempty"`
	Open    []int     `json:"open,omitempty"`
	// FacilityCost is the open facilities' total cost (UFL only).
	FacilityCost float64 `json:"facility_cost,omitempty"`
	Estimate     float64 `json:"estimate"`
	Chunks       int     `json:"chunks"`
	Rounds       int     `json:"rounds"`
	MergeBytes   int64   `json:"merge_bytes"`
	PeakBytes    int64   `json:"peak_bytes"`
	BudgetBytes  int64   `json:"budget_bytes,omitempty"`
	EffEpsilon   float64 `json:"eff_epsilon"`
	Identity     bool    `json:"identity,omitempty"`
	Stats        Stats   `json:"stats"`
}

// SolveMPCStream streams a point-form instance through the chunker and the
// composable coreset tree, then solves the root coreset with the solver
// behind name: a registered *-mpc entry ("kmedian-mpc", "kmeans-mpc",
// "greedy-mpc") runs its inner solver, any other "X-mpc" runs solver X. The
// instance is never materialized: no component
// exceeds the configured budget, and the whole run is bitwise deterministic
// per (seed, chunk size) at any worker count.
func SolveMPCStream(ctx context.Context, name string, r io.Reader, opts Options, mo MPCOptions) (*MPCReport, error) {
	base := strings.TrimSuffix(name, "-mpc")
	if base == name {
		return nil, fmt.Errorf("facloc: %q is not an -mpc solver", name)
	}
	kSolver, isK := LookupK(base)
	uSolver, isU := Lookup(base)
	// A registered entry names its own inner solver: greedy-mpc runs greedy-par.
	rk, _ := LookupK(name)
	if m, ok := rk.(*mpcKSolver); ok {
		kSolver, isK = m.inner, true
	}
	ru, _ := Lookup(name)
	if m, ok := ru.(*mpcSolver); ok {
		uSolver, isU = m.inner, true
	}
	if !isK && !isU {
		return nil, fmt.Errorf("facloc: unknown solver %q", name)
	}
	c, tally := opts.ctx()
	start := time.Now()
	pick := func(h *mpc.Header) (int, core.KObjective, error) {
		switch h.Kind {
		case mpc.KindK:
			if !isK {
				return 0, 0, fmt.Errorf("facloc: %s cannot solve a k-clustering stream", name)
			}
			return h.K, core.KObjective(kSolver.Objective()), nil
		case mpc.KindUFL:
			if !isU {
				return 0, 0, fmt.Errorf("facloc: %s cannot solve a UFL stream", name)
			}
			return mo.uflSampleK(), core.KMedian, nil
		}
		return 0, 0, fmt.Errorf("facloc: unknown stream kind %v", h.Kind)
	}
	res, err := mpc.SolveStream(ctx, c, r, mo.mpc(opts), pick)
	if err != nil {
		return nil, err
	}
	h := res.Header
	rep := &MPCReport{
		Solver: name, Kind: h.Kind.String(), N: h.N, Dim: h.Dim,
		Chunks: res.Chunks, Rounds: res.Rounds, MergeBytes: res.MergeBytes,
		BudgetBytes: res.BudgetBytes, EffEpsilon: res.EffEpsilon, Identity: res.Identity,
	}
	ids := par.Iota(c, res.Len())
	switch h.Kind {
	case mpc.KindK:
		rep.K = h.K
		rep.Guarantee = mpcGuarantee(kSolver.Guarantee(), res.EffEpsilon)
		sp := &metric.Euclidean{Dim: h.Dim, Coords: res.Coords}
		centers, value, err := solveKRoot(ctx, c, kSolver, sp, ids, res.Weight, h.K, &res.Counters, opts)
		if err != nil {
			return nil, err
		}
		rep.Estimate = value
		for _, ci := range centers {
			rep.Centers = append(rep.Centers, sp.Point(ci)...)
		}
	case mpc.KindUFL:
		rep.NF = h.NF
		rep.Guarantee = mpcGuarantee(uSolver.Guarantee(), res.EffEpsilon)
		// Facilities first, then the root clients: one space for the step.
		all := &metric.Euclidean{Dim: h.Dim,
			Coords: append(append(make([]float64, 0, len(h.FacCoords)+len(res.Coords)), h.FacCoords...), res.Coords...)}
		for i := range ids {
			ids[i] += h.NF
		}
		open, sub, err := solveUFLRoot(ctx, c, uSolver, all, par.Iota(c, h.NF), h.FacCost, ids, res.Weight, &res.Counters, opts)
		if err != nil {
			return nil, err
		}
		rep.Open = open
		rep.FacilityCost = sub.FacilityCost
		rep.Estimate = sub.Cost()
	}
	rep.PeakBytes = res.PeakBytes
	rep.Stats = statsFrom(tally, time.Since(start))
	return rep, nil
}
