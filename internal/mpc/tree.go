package mpc

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/coreset"
	"repro/internal/metric"
	"repro/internal/par"
)

// DefaultChunkPoints is the leaf chunk size when neither ChunkPoints nor
// BudgetBytes picks one: large enough that chunk overhead is noise, small
// enough that a chunk's working set stays comfortably inside a laptop core's
// cache-adjacent memory.
const DefaultChunkPoints = 1 << 17

// pointOverhead is the accounted per-point working-set footprint of a node
// build beyond the coordinates themselves: the sampler's distance, assignment,
// score, and prefix arrays plus id/weight storage. Deliberately conservative —
// budget accounting must never flatter a component.
const pointOverhead = 48

// memberBytes is the wire footprint of one coreset member crossing a merge
// barrier: an int32 id and a float64 weight (plus the ~int32 of node-ordinal
// framing the cluster driver adds).
const memberBytes = 16

// ErrBudget reports that some component of a run would exceed the configured
// per-component memory budget. It is a planning error raised before the
// allocation, never an OOM after it.
var ErrBudget = errors.New("mpc: memory budget exceeded")

// Options configures an MPC solve. The zero value auto-sizes everything:
// default chunk size, automatic coreset size, ε = 0.3, seed 0, no budget.
type Options struct {
	// ChunkPoints is the number of points per leaf chunk. 0 derives it from
	// BudgetBytes (the largest chunk whose build fits the budget), or
	// DefaultChunkPoints when there is no budget either.
	ChunkPoints int
	// BudgetBytes caps the accounted footprint of every component of the run
	// — chunk slabs, node builds, merge inputs, the root sub-instance. 0
	// disables the budget. A component that cannot fit is an ErrBudget error.
	BudgetBytes int64
	// CoresetSize is the per-node coreset size target (leaves and merges);
	// 0 lets the coreset layer auto-size (max(20k, 1024)).
	CoresetSize int
	// Epsilon is the per-level distortion target; each sampling level
	// multiplies (1+ε) into the composed guarantee. 0 means 0.3.
	Epsilon float64
	// Seed drives every sampling decision through counter-based splitmix64
	// streams keyed on (level, node): runs are bitwise deterministic per seed
	// at any worker or shard count.
	Seed int64
}

// Epsilon01 returns the effective per-level distortion target (0.3 default).
func (o Options) Epsilon01() float64 {
	if o.Epsilon <= 0 {
		return 0.3
	}
	return o.Epsilon
}

// pointBytes is the accounted footprint of one dim-dimensional point in a
// component's working set.
func pointBytes(dim int) int64 { return int64(dim)*8 + pointOverhead }

// chunkPoints resolves the leaf chunk size for points of the given dimension.
func (o Options) chunkPoints(dim int) int {
	if o.ChunkPoints > 0 {
		return o.ChunkPoints
	}
	if o.BudgetBytes > 0 {
		cp := int(o.BudgetBytes / pointBytes(dim))
		if cp < 1 {
			cp = 1
		}
		return cp
	}
	return DefaultChunkPoints
}

// coresetSize resolves the per-node coreset size target. Under a budget with
// no explicit size, the size is chosen so the root coreset's dense weighted
// sub-instance — s² distances at 8 bytes, the one quadratic component of the
// whole pipeline — still fits the budget.
func (o Options) coresetSize() int {
	if o.CoresetSize > 0 || o.BudgetBytes <= 0 {
		return o.CoresetSize
	}
	s := int(math.Sqrt(float64(o.BudgetBytes) / 8))
	if s < 64 {
		s = 64
	}
	if s > core.DenseLimit {
		s = core.DenseLimit
	}
	return s
}

// co assembles the coreset options for one node build.
func (o Options) co(seed int64) coreset.Options {
	return coreset.Options{Size: o.coresetSize(), Epsilon: o.Epsilon01(), Seed: seed}
}

// planSalt separates the tree's seed universe from every other consumer of
// the solve seed (generators, coreset identity builds, primal-dual ties).
const planSalt = 0x6D70632D74726565 // "mpc-tree"

// Plan is the deterministic shape of a coreset tree: a pure function of
// (n, chunk size, seed), identical on every worker and shard.
type Plan struct {
	// N is the ground-set size; ChunkPoints the leaf span; Chunks the number
	// of leaves; Levels the number of pairwise merge levels above them.
	N, ChunkPoints, Chunks, Levels int

	seed uint64
}

// NewPlan shapes the tree over n points with the given leaf span.
func NewPlan(n, chunkPoints int, seed int64) Plan {
	if chunkPoints <= 0 {
		chunkPoints = DefaultChunkPoints
	}
	chunks := (n + chunkPoints - 1) / chunkPoints
	if chunks < 1 {
		chunks = 1
	}
	levels := 0
	for w := chunks; w > 1; w = (w + 1) / 2 {
		levels++
	}
	return Plan{
		N: n, ChunkPoints: chunkPoints, Chunks: chunks, Levels: levels,
		seed: par.Mix64(uint64(seed) ^ planSalt),
	}
}

// Leaf returns chunk i's half-open global point range.
func (p Plan) Leaf(i int) (lo, hi int) {
	lo = i * p.ChunkPoints
	hi = lo + p.ChunkPoints
	if hi > p.N {
		hi = p.N
	}
	return lo, hi
}

// Width returns the number of nodes at a level (level 0 = leaves).
func (p Plan) Width(level int) int {
	w := p.Chunks
	for l := 0; l < level; l++ {
		w = (w + 1) / 2
	}
	return w
}

// NodeSeed derives the sampling seed of one node build: independent splitmix64
// substreams per (level, ordinal), so no two builds ever share counter space.
func (p Plan) NodeSeed(level, node int) int64 {
	return int64(par.Stream(par.Stream(p.seed, level), node))
}

// Rounds is the number of synchronous rounds the tree takes: the leaf round
// plus one per merge level.
func (p Plan) Rounds() int { return p.Levels + 1 }

// Node is one tree node's weighted coreset, in ground-set coordinates: the
// currency merged up the tree and shipped across cluster barriers. Ids are
// ascending global point indices (int32 — the subsystem caps ground sets at
// 2³¹ points, far past what the coordinate stream itself allows).
type Node struct {
	Ids    []int32
	Weight []float64
}

// Len returns the node's member count.
func (n *Node) Len() int { return len(n.Ids) }

// WireBytes is the node's accounted barrier payload size.
func (n *Node) WireBytes() int64 { return int64(n.Len()) * memberBytes }

// Counters is the observable shape of a finished run: what the metrics layer
// exports and the budget smoke asserts on. All fields are deterministic —
// identical for local and cluster drivers at any worker count.
type Counters struct {
	// Chunks and Levels mirror the plan; Rounds counts executed rounds (the
	// leaf round plus each merge barrier).
	Chunks, Levels, Rounds int
	// MergeBytes totals the node payload bytes crossing merge barriers (for
	// the local driver: the bytes that would cross — the same number, so the
	// metric is driver-independent).
	MergeBytes int64
	// PeakBytes is the largest accounted component footprint of the run;
	// BudgetBytes echoes the budget it was enforced against (0 = none).
	PeakBytes, BudgetBytes int64
	// EffEpsilon is the composed distortion slack of the whole tree:
	// (1+ε)^levels−1 over the actual sampling depth, 0 for identity runs.
	EffEpsilon float64
	// Identity marks runs whose root coreset is the entire ground set (every
	// build was an identity shortcut): no distortion was introduced.
	Identity bool
}

// AccountComponent folds one component's footprint into the counters,
// enforcing the budget: the peak always moves, and a component past the
// budget is a loud ErrBudget. The facloc layer uses this to account the root
// sub-instance it materializes after the tree finishes.
func (ct *Counters) AccountComponent(what string, bytes int64) error {
	if bytes > ct.PeakBytes {
		ct.PeakBytes = bytes
	}
	if ct.BudgetBytes > 0 && bytes > ct.BudgetBytes {
		return fmt.Errorf("%w: %s needs %d bytes, budget %d", ErrBudget, what, bytes, ct.BudgetBytes)
	}
	return nil
}

// TreeResult is a finished coreset tree: the root node and the run counters.
type TreeResult struct {
	Root *Node
	Counters
}

// spanSpace is the zero-copy view of a contiguous chunk of a space.
type spanSpace struct {
	sp    metric.Space
	lo, n int
}

func (s *spanSpace) N() int                { return s.n }
func (s *spanSpace) Dist(i, j int) float64 { return s.sp.Dist(s.lo+i, s.lo+j) }

// SolveTree runs the composable coreset tree over a resident point space (the
// registry path: the instance exists, possibly lazily, on every shard) and
// returns the root coreset. k and obj shape the sensitivity sampling; baseW
// are optional source weights. Round execution goes through r — Local for
// par's pooled scheduler, ClusterRounds for the shard cluster — and the
// result is bitwise identical for either driver at any parallelism.
func SolveTree(ctx context.Context, c *par.Ctx, sp metric.Space, k int, obj core.KObjective, baseW []float64, o Options, r Rounds) (*TreeResult, error) {
	n := sp.N()
	if n == 0 {
		return nil, errors.New("mpc: empty point space")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("mpc: %d points exceed the id space", n)
	}
	if baseW != nil && len(baseW) != n {
		return nil, fmt.Errorf("mpc: %d weights for %d points", len(baseW), n)
	}
	dim := 0
	if e, ok := sp.(*metric.Euclidean); ok {
		dim = e.Dim
	}
	plan := NewPlan(n, o.chunkPoints(dim), o.Seed)
	ct := Counters{Chunks: plan.Chunks, Levels: plan.Levels, BudgetBytes: o.BudgetBytes}

	// Leaf round: every chunk reduces to a weighted coreset. Component
	// accounting is done up front from the plan — deterministically, on every
	// driver — so a run that cannot fit fails before any work is spent.
	for i := 0; i < plan.Chunks; i++ {
		lo, hi := plan.Leaf(i)
		if err := ct.AccountComponent(fmt.Sprintf("chunk %d build (%d points)", i, hi-lo), int64(hi-lo)*pointBytes(dim)); err != nil {
			return nil, err
		}
	}
	nodes, err := r.Level(ctx, 0, plan.Chunks, func(i int) (*Node, error) {
		lo, hi := plan.Leaf(i)
		var w []float64
		if baseW != nil {
			w = baseW[lo:hi]
		}
		cs, err := coreset.Build(ctx, c, &spanSpace{sp: sp, lo: lo, n: hi - lo}, k, obj, w, o.co(plan.NodeSeed(0, i)))
		if err != nil {
			return nil, err
		}
		return liftNode(cs, func(p int) int32 { return int32(lo + p) }), nil
	})
	if err != nil {
		return nil, err
	}
	ct.Rounds++
	emitRound(c, 0, nodes, 0)

	// Merge rounds: pairwise, odd node carried unchanged (no re-sampling, no
	// extra distortion). Node ids stay ascending because every node covers a
	// contiguous chunk range and left children precede right children.
	sampled := plan.Chunks > 1 || nodes[0].Len() < n
	for level := 1; level <= plan.Levels; level++ {
		prev := nodes
		width := plan.Width(level)
		for j := 0; j < width; j++ {
			if 2*j+1 < len(prev) {
				in := prev[2*j].Len() + prev[2*j+1].Len()
				if err := ct.AccountComponent(fmt.Sprintf("level %d merge %d (%d members)", level, j, in), int64(in)*pointBytes(dim)); err != nil {
					return nil, err
				}
			}
		}
		nodes, err = r.Level(ctx, level, width, func(j int) (*Node, error) {
			a := prev[2*j]
			if 2*j+1 >= len(prev) {
				return a, nil
			}
			b := prev[2*j+1]
			ids := append(append(make([]int32, 0, a.Len()+b.Len()), a.Ids...), b.Ids...)
			w := append(append(make([]float64, 0, a.Len()+b.Len()), a.Weight...), b.Weight...)
			cs, err := coreset.Build(ctx, c, &metric.Subset[int32]{Space: sp, Idx: ids}, k, obj, w, o.co(plan.NodeSeed(level, j)))
			if err != nil {
				return nil, err
			}
			return liftNode(cs, func(p int) int32 { return ids[p] }), nil
		})
		if err != nil {
			return nil, err
		}
		ct.Rounds++
		var levelBytes int64
		for _, nd := range nodes {
			levelBytes += nd.WireBytes()
		}
		ct.MergeBytes += levelBytes
		emitRound(c, level, nodes, levelBytes)
	}

	root := nodes[0]
	ct.Identity = root.Len() == n
	if ct.Identity || !sampled {
		ct.EffEpsilon = 0
	} else {
		ct.EffEpsilon = math.Pow(1+o.Epsilon01(), float64(plan.Levels+1)) - 1
	}
	return &TreeResult{Root: root, Counters: ct}, nil
}

// liftNode maps a local coreset into ground-set coordinates.
func liftNode(cs *coreset.Coreset, at func(int) int32) *Node {
	node := &Node{Ids: make([]int32, cs.Len()), Weight: cs.Weight}
	for a, p := range cs.Points {
		node.Ids[a] = at(p)
	}
	return node
}

// emitRound publishes one per-round span event through the Ctx's tracer.
func emitRound(c *par.Ctx, level int, nodes []*Node, levelBytes int64) {
	if !c.Tracing() {
		return
	}
	var live int64
	for _, nd := range nodes {
		live += int64(nd.Len())
	}
	c.Emit(par.TraceEvent{
		Solver: "mpc", Phase: "round", Round: level,
		Opened: len(nodes), Live: live, Bytes: int(levelBytes),
	})
}
