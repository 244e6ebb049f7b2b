// Package coreset is the reduction layer between instance ingest and the
// solver stack: parallel D^x (sensitivity) sampling and farthest-point
// covers over a metric.Space that reduce million-point k-median / k-means /
// k-center and facility-location instances to small weighted instances every
// existing solver handles unchanged — without ever materializing an n×n (or
// nf×nc) distance matrix. Peak distance storage is O(coreset² + n): the O(n)
// part is the distance-to-representatives vector the builders maintain, the
// coreset² part is the dense sub-instance handed to the solver.
//
// Build reduces one point set; internal/mpc composes builds into a coreset
// tree, and facloc's *-coreset registry entries are that tree with a single
// leaf. For facility location the clients are sampled like k-median points
// and PruneFacilities trims the facility candidates to the coreset clients'
// neighborhoods:
//
//	point space ──▶ seed O(k) centers by D^x sampling ──▶ sensitivities
//	     │                 (k-center: farthest-point cover)      │
//	     │                                                       ▼
//	     │                              sample m points, weight 1/(m·p_j)
//	     │                                                       │
//	     ▼                                                       ▼
//	full objective evaluation ◀── lift centers ◀── solve weighted m-point
//	      (O(n·k), no matrix)                        instance (any solver)
//
// Randomness is counter-based splitmix64 (par.Mix64 streams): every draw is
// a pure function of (seed, ordinal), and every floating-point reduction a
// pick depends on uses a fixed block tree, so a build is bitwise
// deterministic per seed and independent of the worker count — the same
// convention the generators and domset kernels follow.
//
// The size-reduction approach follows the coreset line of work the ROADMAP
// cites: Cohen-Addad, Kuhn & Parsaeian (arXiv:2507.14089) compose
// constant-factor MPC k-means from exactly this sampling shape, and
// Garimella et al. (arXiv:1503.03635) scale facility location by never
// touching all pairwise distances.
package coreset
