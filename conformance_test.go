package facloc

// The cross-solver conformance suite: every registered solver, on a grid of
// small generated instances, must (a) return a feasible solution, (b) stay
// within its declared Guarantee of the exact optimum, and (c) produce a
// bitwise-identical solution for the same seed regardless of worker count.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/exact"
	"repro/internal/greedy"
	"repro/internal/par"
	"repro/internal/primaldual"
)

const confEps = 0.3

// confWorkers is the parallel worker count for the determinism leg: at least
// 4, so the check is not vacuous on single-core machines.
func confWorkers() int {
	if p := runtime.GOMAXPROCS(0); p > 4 {
		return p
	}
	return 4
}

// confUFLInstances is the UFL conformance grid: three families
// (explicit-euclidean, uniform, clustered), all with nf small enough for
// exact enumeration and n = nf + nc ≤ 12.
func confUFLInstances(t *testing.T) map[string]*Instance {
	t.Helper()
	grid := map[string]*Instance{}

	// Hand-built Euclidean lattice: 3 facilities, 8 clients on integer
	// coordinates.
	points := [][]float64{
		{0, 0}, {4, 0}, {2, 3}, // facilities
		{0, 1}, {1, 0}, {3, 0}, {4, 1}, {2, 2}, {1, 3}, {3, 3}, {2, 1}, // clients
	}
	euc, err := FromPoints(points, []int{0, 1, 2}, []int{3, 4, 5, 6, 7, 8, 9, 10},
		[]float64{1.5, 2, 1})
	if err != nil {
		t.Fatalf("building euclidean instance: %v", err)
	}
	grid["euclidean"] = euc

	for _, seed := range []int64{1, 2} {
		grid[fmt.Sprintf("uniform-%d", seed)] = GenerateUniform(seed, 4, 8, 1, 6)
		grid[fmt.Sprintf("clustered-%d", seed)] = GenerateClustered(seed, 3, 9, 2)
	}
	return grid
}

func confKInstances(t *testing.T) map[string]*KInstance {
	t.Helper()
	grid := map[string]*KInstance{}
	for _, seed := range []int64{1, 2} {
		grid[fmt.Sprintf("kuniform-%d", seed)] = GenerateKUniform(seed, 10, 3)
		grid[fmt.Sprintf("kclustered-%d", seed)] = GenerateKClustered(seed, 12, 2)
	}
	return grid
}

func TestConformanceRegistryPopulated(t *testing.T) {
	if got := len(Solvers()); got < 8 {
		t.Fatalf("only %d UFL solvers registered, want >= 8 (incl. greedy-coreset)", got)
	}
	if got := len(KSolvers()); got < 11 {
		t.Fatalf("only %d k-solvers registered, want >= 11 (incl. *-coreset)", got)
	}
	for _, name := range []string{"kmedian-coreset", "kmeans-coreset", "kcenter-coreset"} {
		if _, ok := LookupK(name); !ok {
			t.Errorf("coreset k-solver %q not registered", name)
		}
	}
	if _, ok := Lookup("greedy-coreset"); !ok {
		t.Error("greedy-coreset not registered")
	}
	for _, s := range Solvers() {
		if _, ok := Lookup(s.Name()); !ok {
			t.Errorf("solver %q not resolvable by name", s.Name())
		}
	}
	if _, err := Solve(context.Background(), "no-such-solver", GenerateUniform(1, 3, 4, 1, 6), Options{}); err == nil {
		t.Fatal("Solve with unknown name should fail")
	}
}

func TestConformanceUFL(t *testing.T) {
	ctx := context.Background()
	for label, in := range confUFLInstances(t) {
		opt := exact.FacilityOPT(nil, in)
		for _, s := range Solvers() {
			t.Run(label+"/"+s.Name(), func(t *testing.T) {
				o1 := Options{Epsilon: confEps, Seed: 7, Workers: 1}
				op := o1
				op.Workers = confWorkers()

				rep1, err := SolveWith(ctx, s, in, o1)
				if err != nil {
					t.Fatalf("Workers=1 solve: %v", err)
				}
				repP, err := SolveWith(ctx, s, in, op)
				if err != nil {
					t.Fatalf("Workers=%d solve: %v", op.Workers, err)
				}

				// (a) feasibility: every client connected to an open facility,
				// recorded costs consistent.
				if err := rep1.Solution.CheckFeasible(in, 1e-6); err != nil {
					t.Fatalf("infeasible solution: %v", err)
				}

				// (b) guarantee vs the exact optimum.
				bound := s.Guarantee().Bound(confEps)
				if cost, lim := rep1.Solution.Cost(), bound*opt.Cost(); cost > lim+1e-9 {
					t.Fatalf("cost %.6f exceeds %s = %.6f (OPT %.6f)",
						cost, s.Guarantee(), lim, opt.Cost())
				}

				// (c) bitwise-identical solutions across worker counts.
				if !reflect.DeepEqual(rep1.Solution, repP.Solution) {
					t.Fatalf("Workers=1 and Workers=%d solutions differ:\n%+v\nvs\n%+v",
						op.Workers, rep1.Solution, repP.Solution)
				}
			})
		}
	}
}

func TestConformanceKClustering(t *testing.T) {
	ctx := context.Background()
	for label, ki := range confKInstances(t) {
		for _, s := range KSolvers() {
			t.Run(label+"/"+s.Name(), func(t *testing.T) {
				opt := exact.KClusterOPT(nil, ki, s.Objective())

				o1 := Options{Epsilon: confEps, Seed: 7, Workers: 1}
				op := o1
				op.Workers = confWorkers()

				rep1, err := SolveKWith(ctx, s, ki, o1)
				if err != nil {
					t.Fatalf("Workers=1 solve: %v", err)
				}
				repP, err := SolveKWith(ctx, s, ki, op)
				if err != nil {
					t.Fatalf("Workers=%d solve: %v", op.Workers, err)
				}

				if err := rep1.Solution.CheckFeasible(ki, 1e-6); err != nil {
					t.Fatalf("infeasible solution: %v", err)
				}
				if rep1.Solution.Obj != s.Objective() {
					t.Fatalf("solution objective %v, solver declares %v", rep1.Solution.Obj, s.Objective())
				}

				bound := s.Guarantee().Bound(confEps)
				if val, lim := rep1.Solution.Value, bound*opt.Value; val > lim+1e-9 {
					t.Fatalf("value %.6f exceeds %s = %.6f (OPT %.6f)",
						val, s.Guarantee(), lim, opt.Value)
				}

				if !reflect.DeepEqual(rep1.Solution, repP.Solution) {
					t.Fatalf("Workers=1 and Workers=%d solutions differ:\n%+v\nvs\n%+v",
						op.Workers, rep1.Solution, repP.Solution)
				}
			})
		}
	}
}

// TestConformanceCoresetQuality exercises the single-coreset path — the
// one-leaf coreset tree the *-coreset entries run — where the coreset is a
// genuine reduction (128 members ≪ n, past the identity shortcut the small
// conformance grids hit): for every composition, solve-on-coreset must stay
// within the composed guarantee of the direct solve, and the solution must
// be bitwise identical across worker counts.
func TestConformanceCoresetQuality(t *testing.T) {
	ctx := context.Background()
	mo := MPCOptions{CoresetSize: 128}

	for _, name := range []string{"kmedian", "kmeans", "kcenter"} {
		inner, ok := LookupK(name)
		if !ok {
			t.Fatalf("inner solver %q missing", name)
		}
		s := MPC(inner, mo)
		ki := GenerateHugeK(21, 600, 4)
		t.Run(name+"-coreset", func(t *testing.T) {
			o1 := Options{Epsilon: confEps, Seed: 7, Workers: 1}
			op := o1
			op.Workers = confWorkers()

			direct, err := SolveKWith(ctx, inner, ki, o1)
			if err != nil {
				t.Fatalf("direct solve: %v", err)
			}
			rep1, err := SolveKWith(ctx, s, ki, o1)
			if err != nil {
				t.Fatalf("coreset solve: %v", err)
			}
			repP, err := SolveKWith(ctx, s, ki, op)
			if err != nil {
				t.Fatalf("coreset solve Workers=%d: %v", op.Workers, err)
			}

			if err := rep1.Solution.CheckFeasible(ki, 1e-6); err != nil {
				t.Fatalf("coreset solution infeasible: %v", err)
			}
			bound := s.Guarantee().Bound(confEps)
			if got, lim := rep1.Solution.Value, bound*direct.Solution.Value; got > lim+1e-9 {
				t.Fatalf("coreset value %.4f exceeds composed bound %.4f (direct %.4f, %s)",
					got, lim, direct.Solution.Value, s.Guarantee())
			}
			if !reflect.DeepEqual(rep1.Solution, repP.Solution) {
				t.Fatalf("coreset solutions differ between Workers=1 and Workers=%d", op.Workers)
			}
		})
	}

	// UFL composition: greedy on the pruned facilities × coreset clients.
	inner, _ := Lookup("greedy-par")
	s := MPCUFL(inner, mo)
	in := GenerateHugeUFL(23, 25, 600)
	t.Run("greedy-coreset", func(t *testing.T) {
		o1 := Options{Epsilon: confEps, Seed: 7, Workers: 1}
		op := o1
		op.Workers = confWorkers()

		direct, err := SolveWith(ctx, inner, in, o1)
		if err != nil {
			t.Fatalf("direct greedy: %v", err)
		}
		rep1, err := SolveWith(ctx, s, in, o1)
		if err != nil {
			t.Fatalf("coreset greedy: %v", err)
		}
		repP, err := SolveWith(ctx, s, in, op)
		if err != nil {
			t.Fatalf("coreset greedy Workers=%d: %v", op.Workers, err)
		}
		if err := rep1.Solution.CheckFeasible(in, 1e-6); err != nil {
			t.Fatalf("coreset UFL solution infeasible: %v", err)
		}
		bound := s.Guarantee().Bound(confEps)
		if got, lim := rep1.Solution.Cost(), bound*direct.Solution.Cost(); got > lim+1e-9 {
			t.Fatalf("coreset cost %.4f exceeds composed bound %.4f (direct %.4f)",
				got, lim, direct.Solution.Cost())
		}
		if !reflect.DeepEqual(rep1.Solution, repP.Solution) {
			t.Fatalf("coreset UFL solutions differ between worker counts")
		}
	})
}

// TestConformanceIncrementalEnginesMatchDense pins the round-incremental
// greedy and primal-dual engines to their dense reference paths on the
// conformance grid: bitwise-identical solutions, α duals, and (for greedy)
// τ schedules, at one worker and at the parallel worker count.
func TestConformanceIncrementalEnginesMatchDense(t *testing.T) {
	ctx := context.Background()
	for label, in := range confUFLInstances(t) {
		dense, err := in.Densified(nil)
		if err != nil {
			t.Fatalf("%s: densify: %v", label, err)
		}
		for _, workers := range []int{1, confWorkers()} {
			c := &par.Ctx{Workers: workers, Grain: 4}

			gd, err := greedy.Parallel(ctx, c, dense, &greedy.Options{Epsilon: confEps, Seed: 7, DenseEngine: true})
			if err != nil {
				t.Fatal(err)
			}
			gi, err := greedy.Parallel(ctx, c, dense, &greedy.Options{Epsilon: confEps, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gd.Sol, gi.Sol) || !reflect.DeepEqual(gd.Alpha, gi.Alpha) ||
				!reflect.DeepEqual(gd.TauSchedule, gi.TauSchedule) {
				t.Fatalf("%s workers=%d: greedy engines disagree", label, workers)
			}

			pd, err := primaldual.Parallel(ctx, c, dense, &primaldual.Options{Epsilon: confEps, Seed: 7, DenseEngine: true})
			if err != nil {
				t.Fatal(err)
			}
			pi, err := primaldual.Parallel(ctx, c, dense, &primaldual.Options{Epsilon: confEps, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pd.Sol, pi.Sol) || !reflect.DeepEqual(pd.Alpha, pi.Alpha) ||
				!reflect.DeepEqual(pd.Pi, pi.Pi) {
				t.Fatalf("%s workers=%d: primal-dual engines disagree", label, workers)
			}
		}
	}
}

// TestConformanceExactSolversAreExact pins the two enumeration adapters to
// the true optimum, so the guarantee checks above are anchored to a solver
// the suite itself verifies.
func TestConformanceExactSolversAreExact(t *testing.T) {
	ctx := context.Background()
	in := GenerateUniform(3, 4, 8, 1, 6)
	rep, err := Solve(ctx, "opt", in, Options{})
	if err != nil {
		t.Fatalf("opt solve: %v", err)
	}
	want := exact.FacilityOPT(nil, in).Cost()
	if got := rep.Solution.Cost(); got != want {
		t.Fatalf("registry opt cost %v, direct enumeration %v", got, want)
	}

	ki := GenerateKUniform(3, 9, 2)
	krep, err := SolveK(ctx, "k-median-opt", ki, Options{})
	if err != nil {
		t.Fatalf("k-median-opt solve: %v", err)
	}
	if want := exact.KClusterOPT(nil, ki, KMedian).Value; krep.Solution.Value != want {
		t.Fatalf("registry k-median-opt value %v, direct enumeration %v", krep.Solution.Value, want)
	}
}
