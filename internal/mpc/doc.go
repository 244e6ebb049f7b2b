// Package mpc solves k-clustering and facility-location instances far larger
// than one machine's memory, in the massively-parallel-computation model: the
// point stream is cut into fixed-size chunks, each chunk is reduced to a small
// weighted coreset (sensitivity sampling, reused from internal/coreset on
// weighted inputs), and the per-chunk coresets are merged pairwise up a
// composable coreset tree in O(log chunks) synchronous rounds — the round
// structure of the constant-factor MPC k-means algorithm (Cohen-Addad, Kuhn,
// Parsaeian 2025). The root coreset is handed to any registered inner solver;
// each sampling level multiplies a (1+ε) distortion into the composed
// guarantee. A tree with one chunk is a single coreset build over the whole
// space — the configuration facloc's *-coreset entries run.
//
// Three invariants shape everything here:
//
//   - Bounded components. No step of a run ever holds more than the
//     configured byte budget: chunk slabs, node builds, merge inputs, and the
//     root sub-instance are all accounted against Options.BudgetBytes before
//     they are allocated, and a component that would not fit is a loud
//     ErrBudget error, never an OOM.
//
//   - Bitwise determinism. The chunk partition is a pure function of
//     (n, chunk size); every build seed is derived from the tree seed by
//     counter-based splitmix64 streams keyed on (level, node ordinal); and
//     all sampling goes through the coreset layer's fixed-block prefix sums.
//     A run with a fixed configuration therefore produces identical bits at
//     any worker count, shard count, or scheduling order. Chunk size and
//     budget are quality parameters (like ε): changing them changes which
//     coreset is sampled, never whether the result is reproducible.
//
//   - One driver interface. Round execution goes through Rounds: Local runs
//     levels on par's pooled scheduler; ClusterRounds runs the same levels on
//     the PR 6 shard cluster, one bounded frame per shard per merge barrier
//     via cluster.Exchange, with deadline budgets and breakers from
//     internal/resilience on every leg. Both drivers produce identical nodes.
package mpc
