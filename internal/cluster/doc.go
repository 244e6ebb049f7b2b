// Package cluster turns faclocd into a multi-node system: N shards peer
// over a Transport, instances route to their owning shard by consistent
// hashing on the content address (core.InstanceHash), solution-cache entries
// replicate to the owner and its ring successor, and one huge instance can be
// solved by a genuinely distributed primal-dual run (primaldual.Distributed)
// whose shards exchange bounded-size frames per synchronous round.
//
// Two Transport implementations exist:
//
//   - HTTPTransport: real frames POSTed between faclocd processes
//     (internal/serve wires POST /cluster/frame into it).
//   - the virtual cluster (NewVirtualCluster): every shard is a goroutine
//     group inside one process, frames pass through a deterministic
//     scheduler with a seeded fault plan — drop, delay, duplicate, reorder,
//     crash, restart — so CI exercises routing, replication, distributed
//     rounds, and injected faults without a single real socket.
//
// The safety contract everywhere is "correct or loud": a cluster operation
// either completes with a result bitwise-identical to its single-process
// counterpart or returns an explicit error — never a wrong or partial
// answer. Frames carry a CRC and are validated on decode; exchange barriers
// verify phase and ordinal so shards cannot silently fall out of lockstep.
// A round frame that reaches a Node before the solve's Exchange is
// registered waits in a bounded per-solve inbox and is delivered on
// registration, so a fault-free solve runs without a single timeout; lost
// frames are re-requested by NACK and, when a peer stays silent, the solve
// fails with an error.
package cluster
