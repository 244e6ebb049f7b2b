package facloc

// Conformance entries for the *-mpc solvers (ISSUE 10): quality within the
// composed coreset-tree bound of the direct solver on mid-size grids, bitwise
// determinism across worker counts and chunk counts, and a 3-shard virtual
// cluster pinned bitwise to the local round driver.

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metric"
	"repro/internal/mpc"
)

// TestConformanceMPCQuality forces a genuine multi-level reduction (600
// points, 150-point chunks, 128-member nodes) and checks the mpc composition
// against the direct solve under the composed guarantee, plus bitwise
// invariance across worker counts.
func TestConformanceMPCQuality(t *testing.T) {
	ctx := context.Background()
	mo := MPCOptions{ChunkPoints: 150, CoresetSize: 128}
	ki := GenerateHugeK(21, 600, 4)

	for _, name := range []string{"kmedian", "kmeans"} {
		inner, ok := LookupK(name)
		if !ok {
			t.Fatalf("inner solver %q missing", name)
		}
		s := MPC(inner, mo)
		t.Run(s.Name(), func(t *testing.T) {
			o1 := Options{Epsilon: confEps, Seed: 7, Workers: 1}
			op := o1
			op.Workers = confWorkers()

			direct, err := SolveKWith(ctx, inner, ki, o1)
			if err != nil {
				t.Fatalf("direct solve: %v", err)
			}
			rep1, err := SolveKWith(ctx, s, ki, o1)
			if err != nil {
				t.Fatalf("mpc solve: %v", err)
			}
			repP, err := SolveKWith(ctx, s, ki, op)
			if err != nil {
				t.Fatalf("mpc solve Workers=%d: %v", op.Workers, err)
			}

			if err := rep1.Solution.CheckFeasible(ki, 1e-6); err != nil {
				t.Fatalf("mpc solution infeasible: %v", err)
			}
			bound := s.Guarantee().Bound(confEps)
			if got, lim := rep1.Solution.Value, bound*direct.Solution.Value; got > lim+1e-9 {
				t.Fatalf("mpc value %.4f exceeds composed bound %.4f (direct %.4f, %s)",
					got, lim, direct.Solution.Value, s.Guarantee())
			}
			if !reflect.DeepEqual(rep1.Solution, repP.Solution) {
				t.Fatalf("mpc solutions differ between Workers=1 and Workers=%d", op.Workers)
			}
		})
	}

	// UFL composition: greedy over the facilities × root-clients sub-instance.
	inner, _ := Lookup("greedy-par")
	s := MPCUFL(inner, mo)
	in := GenerateHugeUFL(23, 25, 600)
	o1 := Options{Epsilon: confEps, Seed: 7, Workers: 1}
	op := o1
	op.Workers = confWorkers()

	direct, err := SolveWith(ctx, inner, in, o1)
	if err != nil {
		t.Fatalf("direct greedy: %v", err)
	}
	rep1, err := SolveWith(ctx, s, in, o1)
	if err != nil {
		t.Fatalf("mpc greedy: %v", err)
	}
	repP, err := SolveWith(ctx, s, in, op)
	if err != nil {
		t.Fatalf("mpc greedy Workers=%d: %v", op.Workers, err)
	}
	if err := rep1.Solution.CheckFeasible(in, 1e-6); err != nil {
		t.Fatalf("mpc UFL solution infeasible: %v", err)
	}
	bound := s.Guarantee().Bound(confEps)
	if got, lim := rep1.Solution.Cost(), bound*direct.Solution.Cost(); got > lim+1e-9 {
		t.Fatalf("mpc cost %.4f exceeds composed bound %.4f (direct %.4f)",
			got, lim, direct.Solution.Cost())
	}
	if !reflect.DeepEqual(rep1.Solution, repP.Solution) {
		t.Fatalf("mpc UFL solutions differ between worker counts")
	}
}

// TestConformanceMPCChunkCounts sweeps chunk counts {1,4,16}. On the identity
// regime (node capacity ≥ n, no sampling) the output must be bitwise
// identical at every chunk count — the partition is pure bookkeeping. On the
// sampling regime each chunk count is its own deterministic quality point:
// repeat runs are bitwise identical, and every one stays within the composed
// bound of the direct solve.
func TestConformanceMPCChunkCounts(t *testing.T) {
	ctx := context.Background()
	const n = 608 // divisible by 4 and 16: the sweep hits exact chunk counts
	ki := GenerateHugeK(21, n, 4)
	inner, _ := LookupK("kmedian")
	o1 := Options{Epsilon: confEps, Seed: 7, Workers: 1}
	op := o1
	op.Workers = confWorkers()

	var identity []*KSolution
	for _, chunks := range []int{1, 4, 16} {
		s := MPC(inner, MPCOptions{ChunkPoints: n / chunks, CoresetSize: n})
		rep, err := SolveKWith(ctx, s, ki, o1)
		if err != nil {
			t.Fatalf("identity chunks=%d: %v", chunks, err)
		}
		identity = append(identity, rep.Solution)
	}
	for i := 1; i < len(identity); i++ {
		if !reflect.DeepEqual(identity[0], identity[i]) {
			t.Fatalf("identity-regime solutions differ between chunk counts:\n%+v\nvs\n%+v",
				identity[0], identity[i])
		}
	}

	direct, err := SolveKWith(ctx, inner, ki, o1)
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	for _, chunks := range []int{1, 4, 16} {
		s := MPC(inner, MPCOptions{ChunkPoints: n / chunks, CoresetSize: 96})
		rep1, err := SolveKWith(ctx, s, ki, o1)
		if err != nil {
			t.Fatalf("sampled chunks=%d: %v", chunks, err)
		}
		repP, err := SolveKWith(ctx, s, ki, op)
		if err != nil {
			t.Fatalf("sampled chunks=%d Workers=%d: %v", chunks, op.Workers, err)
		}
		if !reflect.DeepEqual(rep1.Solution, repP.Solution) {
			t.Fatalf("chunks=%d: solutions differ across worker counts", chunks)
		}
		if err := rep1.Solution.CheckFeasible(ki, 1e-6); err != nil {
			t.Fatalf("chunks=%d: infeasible: %v", chunks, err)
		}
		bound := s.Guarantee().Bound(confEps)
		if got, lim := rep1.Solution.Value, bound*direct.Solution.Value; got > lim+1e-9 {
			t.Fatalf("chunks=%d: value %.4f exceeds composed bound %.4f", chunks, got, lim)
		}
	}
}

// TestConformanceMPCClusterRounds runs the same mpc solve on a 3-shard
// virtual cluster (each shard driving the coreset tree through PhaseCoreset
// exchange barriers) and locally, and requires every shard's full solution to
// be bitwise identical to the local one.
func TestConformanceMPCClusterRounds(t *testing.T) {
	ctx := context.Background()
	const shards = 3
	ki := GenerateHugeK(21, 600, 4)
	inner, _ := LookupK("kmedian")
	mo := MPCOptions{ChunkPoints: 100, CoresetSize: 96}
	opts := Options{Epsilon: confEps, Seed: 7, Workers: 2}

	local, err := SolveKWith(ctx, MPC(inner, mo), ki, opts)
	if err != nil {
		t.Fatalf("local mpc solve: %v", err)
	}

	vc, err := cluster.NewVirtualCluster(shards, cluster.FaultPlan{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()

	sols := make([]*KSolution, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = vc.Node(i).RunExchange(91, 0, nil, func(ex *cluster.Exchange) error {
				s := &mpcKSolver{name: "kmedian-mpc", inner: inner, mo: mo,
					rounds: &mpc.ClusterRounds{Ex: ex, Self: i, Shards: shards}}
				rep, err := SolveKWith(ctx, s, ki, opts)
				if err == nil {
					sols[i] = rep.Solution
				}
				return err
			})
		}(i)
	}
	wg.Wait()
	for i := 0; i < shards; i++ {
		if errs[i] != nil {
			t.Fatalf("shard %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(local.Solution, sols[i]) {
			t.Fatalf("shard %d solution diverges from local rounds:\n%+v\nvs\n%+v",
				i, sols[i], local.Solution)
		}
	}
}

// TestMPCStreamMatchesResident pins the root step the resident and streamed
// paths share: on a lazy k-median instance and a lazy UFL instance,
// SolveMPCStream over the encoded stream returns the same centers (as
// coordinates) and the same open set as the resident *-mpc solve at the same
// seed and chunk size, through a genuine multi-level tree.
func TestMPCStreamMatchesResident(t *testing.T) {
	ctx := context.Background()
	mo := MPCOptions{ChunkPoints: 150, CoresetSize: 96}
	opts := Options{Epsilon: confEps, Seed: 7, Workers: 2}

	ki := GenerateHugeK(21, 600, 4)
	kmed, _ := LookupK("kmedian")
	res, err := SolveKWith(ctx, MPC(kmed, mo), ki, opts)
	if err != nil {
		t.Fatalf("resident kmedian-mpc: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteKInstance(&buf, ki); err != nil {
		t.Fatal(err)
	}
	rep, err := SolveMPCStream(ctx, "kmedian-mpc", &buf, opts, mo)
	if err != nil {
		t.Fatalf("streamed kmedian-mpc: %v", err)
	}
	if rep.Chunks != 4 || rep.Identity {
		t.Fatalf("stream ran %d chunks (identity %v), want a sampled 4-chunk tree", rep.Chunks, rep.Identity)
	}
	var want []float64
	for _, ci := range res.Solution.Centers {
		want = append(want, ki.Points.(*metric.Euclidean).Point(ci)...)
	}
	if !reflect.DeepEqual(rep.Centers, want) {
		t.Fatalf("streamed centers differ from resident ones:\n%v\nvs\n%v", rep.Centers, want)
	}

	in := GenerateHugeUFL(23, 25, 600)
	greedy, _ := Lookup("greedy-par")
	ures, err := SolveWith(ctx, MPCUFL(greedy, mo), in, opts)
	if err != nil {
		t.Fatalf("resident greedy-mpc: %v", err)
	}
	buf.Reset()
	if err := WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	urep, err := SolveMPCStream(ctx, "greedy-mpc", &buf, opts, mo)
	if err != nil {
		t.Fatalf("streamed greedy-mpc: %v", err)
	}
	if urep.Chunks != 4 || urep.Identity {
		t.Fatalf("UFL stream ran %d chunks (identity %v), want a sampled 4-chunk tree", urep.Chunks, urep.Identity)
	}
	if !reflect.DeepEqual(urep.Open, ures.Solution.Open) {
		t.Fatalf("streamed open set %v, resident %v", urep.Open, ures.Solution.Open)
	}
	if urep.FacilityCost != ures.Solution.FacilityCost {
		t.Fatalf("streamed facility cost %v, resident %v", urep.FacilityCost, ures.Solution.FacilityCost)
	}
}
