package coreset

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
)

func uniformSpace(seed int64, n int) *metric.Euclidean {
	rng := rand.New(rand.NewSource(seed))
	return metric.UniformBox(nil, rng, n, 2, 100)
}

func clusteredSpace(seed int64, n, k int) *metric.Euclidean {
	rng := rand.New(rand.NewSource(seed))
	return metric.GaussianClusters(nil, rng, n, k, 2, 100, 2)
}

func TestPrefixFixedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, fixedBlock, fixedBlock + 1, 3*fixedBlock + 17} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		pref, total := prefixFixed(&par.Ctx{Workers: 4}, xs)
		pref1, total1 := prefixFixed(&par.Ctx{Workers: 1}, xs)
		if total != total1 || !reflect.DeepEqual(pref, pref1) {
			t.Fatalf("n=%d: prefix differs between worker counts", n)
		}
		acc := 0.0
		for i, x := range xs {
			acc += x
			if math.Abs(pref[i]-acc) > 1e-9*math.Max(1, acc) {
				t.Fatalf("n=%d: pref[%d]=%v, want ≈%v", n, i, pref[i], acc)
			}
		}
	}
}

func TestPickIndexBoundaries(t *testing.T) {
	xs := []float64{0, 2, 0, 3, 0}
	pref, total := prefixFixed(nil, xs)
	if total != 5 {
		t.Fatalf("total %v", total)
	}
	if got := pickIndex(pref, total, 0); got != 1 {
		t.Fatalf("u=0 picked %d, want 1 (first positive mass)", got)
	}
	if got := pickIndex(pref, total, 0.399); got != 1 {
		t.Fatalf("u=0.399 picked %d, want 1", got)
	}
	if got := pickIndex(pref, total, 0.5); got != 3 {
		t.Fatalf("u=0.5 picked %d, want 3", got)
	}
	if got := pickIndex(pref, total, 0.999999); got != 3 {
		t.Fatalf("u→1 picked %d, want 3 (skip trailing zeros)", got)
	}
}

func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	sp := uniformSpace(7, 20000)
	for _, obj := range []core.KObjective{core.KMedian, core.KMeans, core.KCenter} {
		o := Options{Size: 200, Seed: 42}
		c1, err := Build(context.Background(), &par.Ctx{Workers: 1}, sp, 5, obj, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := Build(context.Background(), &par.Ctx{Workers: 8}, sp, 5, obj, nil, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c1, cp) {
			t.Fatalf("%v: coreset differs between Workers=1 and Workers=8", obj)
		}
		if c1.Len() == 0 || c1.Len() > 200 {
			t.Fatalf("%v: coreset size %d out of range", obj, c1.Len())
		}
	}
}

func TestBuildIdentityWhenSizeCoversSpace(t *testing.T) {
	sp := uniformSpace(3, 50)
	cs, err := Build(context.Background(), nil, sp, 4, core.KMedian, nil, Options{Size: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Identity || cs.Len() != 50 {
		t.Fatalf("expected identity coreset of 50, got %+v", cs)
	}
	for j, p := range cs.Points {
		if p != j || cs.Weight[j] != 1 {
			t.Fatalf("identity coreset should be the whole unit-weight set")
		}
	}
}

func TestCoverWeightsConserveMass(t *testing.T) {
	sp := clusteredSpace(5, 3000, 4)
	cs, err := Build(context.Background(), nil, sp, 4, core.KCenter, nil, Options{Size: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, w := range cs.Weight {
		sum += w
	}
	if math.Abs(sum-3000) > 1e-6 {
		t.Fatalf("cover weights sum to %v, want 3000 (exact mass conservation)", sum)
	}
	if cs.Radius <= 0 {
		t.Fatalf("cover radius %v, want > 0", cs.Radius)
	}
	// A cover twice the size must not have a larger radius.
	cs2, err := Build(context.Background(), nil, sp, 4, core.KCenter, nil, Options{Size: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cs2.Radius > cs.Radius {
		t.Fatalf("radius grew with size: %v -> %v", cs.Radius, cs2.Radius)
	}
}

func TestSamplingWeightsSane(t *testing.T) {
	n := 5000
	sp := clusteredSpace(9, n, 5)
	cs, err := Build(context.Background(), nil, sp, 5, core.KMedian, nil, Options{Size: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, w := range cs.Weight {
		if !(w > 0) {
			t.Fatalf("non-positive weight %v at %d", w, i)
		}
		sum += w
	}
	// The estimator is unbiased for total mass n; allow broad slack.
	if sum < float64(n)/3 || sum > 3*float64(n) {
		t.Fatalf("sampled weights sum to %v, want within 3x of %d", sum, n)
	}
	for i := 1; i < len(cs.Points); i++ {
		if cs.Points[i] <= cs.Points[i-1] {
			t.Fatalf("points not strictly ascending at %d", i)
		}
	}
}

func TestBuildRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sp := uniformSpace(1, 5000)
	if _, err := Build(ctx, nil, sp, 5, core.KMedian, nil, Options{Size: 64}); err == nil {
		t.Fatal("cancelled build should fail")
	}
	if _, err := PruneFacilities(ctx, nil, sp, []int{0, 1, 2}, []float64{1, 1, 1}, []int{3, 4, 5, 6}); err == nil {
		t.Fatal("cancelled PruneFacilities should fail")
	}
}

func TestPruneFacilitiesKeepsNearestAndCheapest(t *testing.T) {
	sp := clusteredSpace(13, 2000, 4)
	nf := 100
	fac := make([]int, nf)
	costs := make([]float64, nf)
	for i := range fac {
		fac[i] = 3 * i // facilities interleaved with clients in the space
		costs[i] = 5 + float64(i%7)
	}
	costs[17] = 1 // the cheapest-to-open anchor
	var cli []int
	for j := 1; len(cli) < 10; j += 7 {
		cli = append(cli, j)
	}
	keep, err := PruneFacilities(context.Background(), nil, sp, fac, costs, cli)
	if err != nil {
		t.Fatal(err)
	}
	kept := make(map[int]bool, len(keep))
	for a, i := range keep {
		if i < 0 || i >= nf || (a > 0 && keep[a-1] >= i) {
			t.Fatalf("kept positions %v not ascending in [0,%d)", keep, nf)
		}
		kept[i] = true
	}
	if !kept[17] {
		t.Fatal("cheapest facility pruned")
	}
	if len(keep) > len(cli)*facPerClient+1 {
		t.Fatalf("kept %d facilities, more than %d nearest per client plus one", len(keep), facPerClient)
	}
	// Brute force: each client's facPerClient nearest facilities survive.
	for _, j := range cli {
		order := make([]int, nf)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return sp.Dist(fac[order[a]], j) < sp.Dist(fac[order[b]], j) })
		for _, i := range order[:facPerClient] {
			if !kept[i] {
				t.Fatalf("client %d: nearest facility %d pruned", j, i)
			}
		}
	}
	keep8, err := PruneFacilities(context.Background(), &par.Ctx{Workers: 8}, sp, fac, costs, cli)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keep, keep8) {
		t.Fatal("PruneFacilities differs between worker counts")
	}
	// Fewer facilities than facPerClient: every one is kept.
	if few, err := PruneFacilities(context.Background(), nil, sp, fac[:3], costs[:3], cli); err != nil || len(few) != 3 {
		t.Fatalf("3 facilities pruned to %v (%v)", few, err)
	}
}
