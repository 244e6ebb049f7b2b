package coreset

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/metric"
	"repro/internal/par"
)

// Options configures a coreset build. The zero value picks an automatic
// size, ε = 0.3, seed 0.
type Options struct {
	// Size is the target coreset size (number of weighted representatives).
	// 0 derives max(20·k, 1024) capped at n; values are clamped to [k, n].
	Size int
	// Epsilon is the distortion budget the build aims for; the composed
	// guarantee of a coreset solve multiplies (1+ε) per sampling level.
	Epsilon float64
	// Seed drives every sampling decision through counter-based splitmix64
	// streams: builds are bitwise deterministic per seed and independent of
	// the worker count.
	Seed int64
}

func (o Options) size(n, k int) int {
	s := o.Size
	if s <= 0 {
		s = 20 * k
		if s < 1024 {
			s = 1024
		}
	}
	if s < k {
		s = k
	}
	if s > n {
		s = n
	}
	// The coreset² sub-instance is the one quadratic object this layer
	// allocates; keep it under the same ceiling the dense path enforces.
	if s > core.DenseLimit {
		s = core.DenseLimit
	}
	return s
}

// seedCenters is the number of D^x-sampled seeding centers the sensitivity
// estimates are computed against: max(2·k, 8), capped at n.
func seedCenters(n, k int) int {
	t := 2 * k
	if t < 8 {
		t = 8
	}
	if t > n {
		t = n
	}
	return t
}

// Coreset is a weighted subset of a point space: solving the (small) dense
// weighted instance over Points approximates solving the full instance, and
// the chosen centers lift back as point indices.
type Coreset struct {
	Points []int     // ascending point indices into the source space
	Weight []float64 // positive weights; Σ ≈ total source weight
	// Radius is the covering radius of Points for cover-based builds
	// (k-center): every source point is within Radius of some member.
	// Zero for sampling-based builds and identity coresets.
	Radius float64
	// SeedingCost is Σ w_j·d^x(j, seeds) of the seeding phase — the
	// normalizer of the sensitivity estimates, reported for diagnostics.
	SeedingCost float64
	// Identity marks the degenerate case Size ≥ n: the coreset is the whole
	// point set and solve-on-coreset is the direct solve.
	Identity bool
}

// Len returns the coreset size.
func (cs *Coreset) Len() int { return len(cs.Points) }

// baseWeight reads the source weight of point j (1 when w is nil).
func baseWeight(w []float64, j int) float64 {
	if w == nil {
		return 1
	}
	return w[j]
}

// Build computes a coreset of sp for the given objective: farthest-point
// cover for k-center (max objectives need coverage, not sampling), D^x
// sensitivity sampling for k-median (x=1) and k-means (x=2). baseW are
// optional source weights (nil = unit). The context is checked between
// rounds; on cancellation the partial build is abandoned.
func Build(ctx context.Context, c *par.Ctx, sp metric.Space, k int, obj core.KObjective, baseW []float64, o Options) (*Coreset, error) {
	n := sp.N()
	if n == 0 {
		return nil, fmt.Errorf("coreset: empty space")
	}
	size := o.size(n, k)
	if size >= n {
		return identity(c, n, baseW), nil
	}
	seed := uint64(o.Seed)
	if obj == core.KCenter {
		return buildCover(ctx, c, sp, size, baseW, seed)
	}
	pow := 1
	if obj == core.KMeans {
		pow = 2
	}
	return buildSampling(ctx, c, sp, pow, size, seedCenters(n, k), baseW, seed)
}

// identity returns the trivial whole-set coreset.
func identity(c *par.Ctx, n int, baseW []float64) *Coreset {
	pts := par.Iota(c, n)
	w := make([]float64, n)
	c.For(n, func(j int) { w[j] = baseWeight(baseW, j) })
	return &Coreset{Points: pts, Weight: w, Identity: true}
}

// ---------- farthest-point cover (k-center) ----------

// cover runs Gonzalez farthest-first traversal for m steps over sp,
// returning the chosen points, each point's nearest chosen position, and the
// final distance vector. Every selection is an exact max-reduction with index
// tie-breaking, so the traversal is deterministic and independent of worker
// count. O(m·n) distance evaluations, O(n) memory.
func cover(ctx context.Context, c *par.Ctx, sp metric.Space, m int, seed uint64) (sel []int, assign []int32, dmin []float64, err error) {
	n := sp.N()
	dmin = make([]float64, n)
	assign = make([]int32, n)
	for j := range dmin {
		dmin[j] = math.Inf(1)
	}
	cur := int(par.Unit(seed, 0) * float64(n))
	if cur >= n {
		cur = n - 1
	}
	for len(sel) < m {
		if err := par.CtxErr(ctx); err != nil {
			return nil, nil, nil, err
		}
		sel = append(sel, cur)
		pos := int32(len(sel) - 1)
		c.ForBlock(n, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				if d := sp.Dist(cur, j); d < dmin[j] {
					dmin[j] = d
					assign[j] = pos
				}
			}
		})
		c.Charge(int64(n), 1)
		far := par.ReduceIndex(c, n, par.IndexedMin{Value: math.Inf(-1), Index: -1},
			func(j int) par.IndexedMin { return par.IndexedMin{Value: dmin[j], Index: j} },
			func(a, b par.IndexedMin) par.IndexedMin {
				if b.Value > a.Value || (b.Value == a.Value && b.Index >= 0 && (a.Index < 0 || b.Index < a.Index)) {
					return b
				}
				return a
			})
		if far.Value == 0 {
			break // every point coincides with a chosen one
		}
		cur = far.Index
	}
	return sel, assign, dmin, nil
}

// buildCover assembles a cover-based coreset: representatives from the
// farthest-point traversal, weighted by the source weight of the points they
// absorb.
func buildCover(ctx context.Context, c *par.Ctx, sp metric.Space, m int, baseW []float64, seed uint64) (*Coreset, error) {
	var prevCost par.Cost
	if c.Tracing() {
		prevCost = c.Tally.Snapshot()
	}
	sel, assign, dmin, err := cover(ctx, c, sp, m, seed)
	if err != nil {
		return nil, err
	}
	if c.Tracing() {
		d := c.Tally.Snapshot().Sub(prevCost)
		c.Emit(par.TraceEvent{
			Solver: "coreset", Phase: "cover",
			Work: d.Work, Span: d.Span,
			Live: int64(len(assign)), Opened: len(sel),
		})
	}
	// Cluster weights: one sequential O(n) pass keeps the float accumulation
	// order fixed (a racy parallel accumulate would not be deterministic).
	w := make([]float64, len(sel))
	for j, a := range assign {
		w[a] += baseWeight(baseW, j)
	}
	radius := par.MaxFloat(c, dmin)
	// Emit sorted by point index (selection order is a traversal artifact).
	order := make([]int, len(sel))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return sel[order[a]] < sel[order[b]] })
	cs := &Coreset{
		Points: make([]int, len(sel)),
		Weight: make([]float64, len(sel)),
		Radius: radius,
	}
	for r, o := range order {
		cs.Points[r] = sel[o]
		cs.Weight[r] = w[o]
	}
	return cs, nil
}

// ---------- D^x sensitivity sampling (k-median, k-means) ----------

// buildSampling seeds t centers by D^x sampling, computes per-point
// sensitivities against the seeding, and draws m weighted samples. All
// weighted picks go through fixed-block prefix sums, so the build is
// bitwise deterministic per seed and independent of worker count.
func buildSampling(ctx context.Context, c *par.Ctx, sp metric.Space, pow, m, t int, baseW []float64, seed uint64) (*Coreset, error) {
	n := sp.N()
	dmin := make([]float64, n)
	assign := make([]int32, n)
	score := make([]float64, n)
	for j := range dmin {
		dmin[j] = math.Inf(1)
	}
	pick := par.Stream(seed, 1)

	var prevCost par.Cost
	if c.Tracing() {
		prevCost = c.Tally.Snapshot()
	}
	var sel []int
	for r := 0; r < t; r++ {
		if err := par.CtxErr(ctx); err != nil {
			return nil, err
		}
		// Scores: source weight on round 0 (uniform-by-weight first center),
		// w_j·d^x(j, seeds) afterwards.
		if r == 0 {
			c.For(n, func(j int) { score[j] = baseWeight(baseW, j) })
		} else {
			c.For(n, func(j int) { score[j] = baseWeight(baseW, j) * powDist(dmin[j], pow) })
		}
		pref, total := prefixFixed(c, score)
		if total == 0 {
			break // remaining points coincide with the seeds
		}
		cur := pickIndex(pref, total, par.Unit(pick, r))
		sel = append(sel, cur)
		pos := int32(len(sel) - 1)
		c.ForBlock(n, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				if d := sp.Dist(cur, j); d < dmin[j] {
					dmin[j] = d
					assign[j] = pos
				}
			}
		})
		c.Charge(int64(n), 1)
	}
	if c.Tracing() {
		now := c.Tally.Snapshot()
		d := now.Sub(prevCost)
		prevCost = now
		c.Emit(par.TraceEvent{
			Solver: "coreset", Phase: "seed",
			Work: d.Work, Span: d.Span,
			Live: int64(n), Opened: len(sel),
		})
	}

	// Sensitivities against the seeding: σ_j = w_j·d^x_j / Cost + w_j / W(cluster_j),
	// the Feldman–Langberg shape (distance share + cluster share).
	clusterW := make([]float64, len(sel))
	for j := 0; j < n; j++ { // sequential: fixed accumulation order
		clusterW[assign[j]] += baseWeight(baseW, j)
	}
	c.For(n, func(j int) { score[j] = baseWeight(baseW, j) * powDist(dmin[j], pow) })
	cost := par.SumFloat(c, score)
	sens := score // reuse
	c.For(n, func(j int) {
		s := baseWeight(baseW, j) / clusterW[assign[j]]
		if cost > 0 {
			s += baseWeight(baseW, j) * powDist(dmin[j], pow) / cost
		}
		sens[j] = s
	})
	pref, total := prefixFixed(c, sens)

	// m i.i.d. draws ∝ sensitivity; duplicates accumulate weight. The
	// estimator weight of a draw of point j is w_j/(m·p_j) = total/(m·σ_j/w_j·…)
	// — written directly below as w_j·total/(m·σ_j).
	draw := par.Stream(seed, 2)
	counts := make(map[int]int, m)
	for r := 0; r < m; r++ {
		counts[pickIndex(pref, total, par.Unit(draw, r))]++
	}
	pts := make([]int, 0, len(counts))
	for j := range counts {
		pts = append(pts, j)
	}
	sort.Ints(pts)
	weights := make([]float64, len(pts))
	for i, j := range pts {
		// A draw of j has probability p_j = σ_j/total; its estimator weight
		// is w_j/(m·p_j), so Σ_coreset w·f is unbiased for Σ_source w·f.
		weights[i] = float64(counts[j]) * baseWeight(baseW, j) * total / (float64(m) * sens[j])
	}
	if c.Tracing() {
		d := c.Tally.Snapshot().Sub(prevCost)
		c.Emit(par.TraceEvent{
			Solver: "coreset", Phase: "sample", Round: 1,
			Work: d.Work, Span: d.Span,
			Live: int64(n), Opened: len(pts),
		})
	}
	return &Coreset{Points: pts, Weight: weights, SeedingCost: cost}, nil
}

func powDist(d float64, pow int) float64 {
	if pow == 2 {
		return d * d
	}
	return d
}

// ---------- fixed-block deterministic prefix sums and picks ----------

// fixedBlock is the leaf size of the prefix-sum tree. A constant (never
// derived from worker count or grain) so every sum is reproducible.
const fixedBlock = 4096

// prefixFixed computes the inclusive prefix sums of xs with a fixed block
// tree: per-block partials in parallel, a sequential scan over the (few)
// block sums, then per-block fills seeded with the exact block offsets.
// Because block offsets are derived from the same block sums, the prefix is
// globally nondecreasing for non-negative input and bitwise identical for
// any worker count.
func prefixFixed(c *par.Ctx, xs []float64) (pref []float64, total float64) {
	n := len(xs)
	pref = make([]float64, n)
	if n == 0 {
		return pref, 0
	}
	blocks := (n + fixedBlock - 1) / fixedBlock
	bs := make([]float64, blocks)
	c.ForRows(blocks, fixedBlock, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			end := (b + 1) * fixedBlock
			if end > n {
				end = n
			}
			acc := 0.0
			for _, x := range xs[b*fixedBlock : end] {
				acc += x
			}
			bs[b] = acc
		}
	})
	offsets := make([]float64, blocks)
	acc := 0.0
	for b := 0; b < blocks; b++ {
		offsets[b] = acc
		acc += bs[b]
	}
	total = acc
	c.ForRows(blocks, fixedBlock, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			end := (b + 1) * fixedBlock
			if end > n {
				end = n
			}
			a := offsets[b]
			for i := b * fixedBlock; i < end; i++ {
				a += xs[i]
				pref[i] = a
			}
		}
	})
	return pref, total
}

// pickIndex returns the smallest index whose inclusive prefix exceeds
// u·total — a weighted draw by binary search, valid because pref is
// nondecreasing. u ∈ [0, 1).
func pickIndex(pref []float64, total, u float64) int {
	target := u * total
	i := sort.Search(len(pref), func(i int) bool { return pref[i] > target })
	if i == len(pref) {
		i-- // u·total rounded up to the full mass: take the last point
		for i > 0 && pref[i-1] == pref[i] {
			i-- // skip trailing zero-weight entries
		}
	}
	return i
}
