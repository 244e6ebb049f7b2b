// Package facloc is a parallel approximation-algorithms library for
// facility-location problems, reproducing Blelloch & Tangwongsan, "Parallel
// Approximation Algorithms for Facility-Location Problems" (SPAA 2010).
//
// It provides:
//
//   - Metric uncapacitated facility location: a parallel greedy algorithm
//     ((3.722+ε)-approximation, §4), a parallel primal-dual algorithm
//     ((3+ε)-approximation, §5), LP rounding given an optimal fractional
//     solution ((4+ε)-approximation, §6.2), and the sequential baselines
//     they parallelize (JMS greedy, Jain–Vazirani primal-dual).
//   - k-center: the parallel Hochbaum–Shmoys 2-approximation (§6.1) and the
//     sequential Gonzalez baseline.
//   - k-median and k-means: parallel local search with (5+ε) and (81+ε)
//     guarantees (§7), including a 2-swap extension.
//   - Exact brute-force solvers and an exact LP solver for measuring true
//     approximation ratios.
//   - A coreset layer (MPC, MPCUFL, the *-coreset and *-mpc registry
//     entries) that reduces million-point point-backed instances to small
//     weighted ones without materializing a distance matrix: a composable
//     coreset tree whose one-leaf case is a single coreset. Client weights
//     thread through every solver family, so solve-on-coreset is exact with
//     respect to the weighted objective.
//   - A serving layer (internal/serve behind cmd/faclocd): a content-
//     addressed instance store (InstanceHash), a solution cache whose hits
//     return byte-identical reports without re-solving, an admission-
//     controlled solve queue with graceful drain, and a zero-allocation
//     assignment query path over cached solutions.
//
// All parallel algorithms run on goroutines and additionally account
// work/span in the paper's PRAM cost model, so the asymptotic claims can be
// checked empirically (see EXPERIMENTS.md).
//
// Entry points take an Options value; the zero value is usable. Every
// algorithm is deterministic for a fixed Options.Seed.
package facloc

import (
	"time"

	"repro/internal/core"
	"repro/internal/par"
)

// Instance is a metric uncapacitated facility-location instance.
// Construct with NewInstance or FromPoints.
type Instance = core.Instance

// KInstance is a k-median/k-means/k-center instance.
type KInstance = core.KInstance

// Solution is an integral facility-location solution.
type Solution = core.Solution

// KSolution is a k-clustering solution.
type KSolution = core.KSolution

// Objective selects a k-clustering objective.
type Objective = core.KObjective

// The k-clustering objectives.
const (
	KMedian = core.KMedian
	KMeans  = core.KMeans
	KCenter = core.KCenter
)

// Options configures a solver call. The zero value selects ε = 0.3, seed 0,
// and GOMAXPROCS workers.
type Options struct {
	// Epsilon is the paper's ε slack parameter: larger values mean fewer
	// parallel rounds and a slightly weaker approximation guarantee.
	Epsilon float64
	// Seed makes every randomized component deterministic.
	Seed int64
	// Workers caps goroutine fan-out; 0 means GOMAXPROCS.
	Workers int
	// TrackCost enables the PRAM work/span tally (small overhead).
	TrackCost bool
	// DenseLimit caps lazy→dense materialization for this solve: a
	// point-backed instance whose facility or client count exceeds it
	// refuses to densify (directing callers at the *-coreset solvers)
	// instead of allocating the matrix. 0 means core.DenseLimit. It bounds a
	// solve's memory; it never changes a successful solution.
	DenseLimit int
	// Trace, if non-nil, receives round-level trace events from the solve
	// (greedy outer rounds, primal-dual iterations, coreset build phases).
	// Implementations must be safe for concurrent use: batch solves share
	// one Options value across workers. Nil costs nothing and never changes
	// the solution.
	Trace par.Tracer
}

// Canonical reduces o to the fields a solution can depend on — the
// solution-cache identity the serving layer keys on. Epsilon is resolved to
// its default; Workers and TrackCost are cleared (every solver is bitwise
// deterministic across worker counts, and the tally never touches the
// solution); DenseLimit is cleared (it gates densification — it can turn a
// solve into an error, never change what a successful one returns); Trace is
// cleared (tracing observes a solve, it never alters one).
func (o Options) Canonical() Options {
	return Options{Epsilon: o.eps(), Seed: o.Seed}
}

func (o Options) ctx() (*par.Ctx, *par.Tally) {
	var tally *par.Tally
	if o.TrackCost {
		tally = &par.Tally{}
	}
	return &par.Ctx{Workers: o.Workers, Tally: tally, Trace: o.Trace}, tally
}

func (o Options) eps() float64 {
	if o.Epsilon <= 0 {
		return 0.3
	}
	return o.Epsilon
}

// Stats reports the measured behaviour of a solver call.
type Stats struct {
	// Work, Span, Calls are PRAM cost-model tallies (zero unless
	// Options.TrackCost was set).
	Work, Span, Calls int64
	// WallTime is the elapsed time of the call.
	WallTime time.Duration
	// Rounds is the algorithm's outer round/iteration count (meaning varies
	// by algorithm: greedy outer rounds, primal-dual dual-raising
	// iterations, local-search swaps, k-center probes, rounding rounds).
	Rounds int
	// InnerRounds is the total subselection/Luby round count where the
	// algorithm has a nested randomized loop.
	InnerRounds int
	// Fallbacks counts deterministic safety-valve activations (expected 0;
	// nonzero values mean a w.h.p. bound was exceeded).
	Fallbacks int
}

func statsFrom(tally *par.Tally, elapsed time.Duration) Stats {
	s := Stats{WallTime: elapsed}
	if tally != nil {
		c := tally.Snapshot()
		s.Work, s.Span, s.Calls = c.Work, c.Span, c.Calls
	}
	return s
}

// Result is a facility-location solver outcome.
type Result struct {
	Solution *Solution
	// Dual holds the α_j dual values produced by dual-fitting algorithms
	// (greedy, primal-dual); nil otherwise. See DualFeasibility.
	Dual  []float64
	Stats Stats
}

// KResult is a k-clustering solver outcome.
type KResult struct {
	Solution *KSolution
	Stats    Stats
}

// DualFeasibility returns the maximum violation of the Figure-1 dual
// constraints by r.Dual scaled by `scale` — non-positive means feasible, in
// which case scale·Σα is a lower bound on OPT (weak duality).
func (r *Result) DualFeasibility(in *Instance, scale float64) float64 {
	if r.Dual == nil {
		return 0
	}
	d := &core.DualSolution{Alpha: r.Dual}
	return d.MaxViolation(nil, in, scale)
}

// DualValue returns Σ_j α_j of the recorded dual (0 when absent).
func (r *Result) DualValue() float64 {
	s := 0.0
	for _, a := range r.Dual {
		s += a
	}
	return s
}
