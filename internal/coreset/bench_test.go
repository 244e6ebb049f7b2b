package coreset

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
)

// Benchmarks cover the three build paths at a size where the O(n) distance
// vector dominates — the regime the sketch layer exists for. The CI bench
// smoke stage runs these once (-benchtime=1x) to catch asymptotic
// regressions in the no-matrix pipeline.

func benchSpace(b *testing.B, n int) *metric.Euclidean {
	b.Helper()
	return clusteredSpace(1, n, 8)
}

func BenchmarkBuildKMedian100k(b *testing.B) {
	sp := benchSpace(b, 100_000)
	o := Options{Size: 512, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(context.Background(), nil, sp, 16, core.KMedian, nil, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildKMeans100k(b *testing.B) {
	sp := benchSpace(b, 100_000)
	o := Options{Size: 512, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(context.Background(), nil, sp, 16, core.KMeans, nil, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildKCenterCover100k(b *testing.B) {
	sp := benchSpace(b, 100_000)
	o := Options{Size: 256, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(context.Background(), nil, sp, 16, core.KCenter, nil, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPruneFacilities50k(b *testing.B) {
	sp := clusteredSpace(2, 50_000, 8)
	fac := make([]int, 200)
	costs := make([]float64, len(fac))
	for i := range fac {
		fac[i], costs[i] = i, 5
	}
	cli := make([]int, 1024)
	for j := range cli {
		cli[j] = len(fac) + 48*j
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PruneFacilities(context.Background(), nil, sp, fac, costs, cli); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrefixFixed1M(b *testing.B) {
	xs := make([]float64, 1_000_000)
	for i := range xs {
		xs[i] = par.Unit(1, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefixFixed(nil, xs)
	}
}
