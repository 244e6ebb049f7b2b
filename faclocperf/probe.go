package main

// The traced run's probe phase. Every traced run prints every per-layer
// metric, so after the window the probe exercises each endpoint and layer
// the workload's own traffic sampled fewer than probeSamples times, on
// instances generated from the workload seed. Probe ops never count as the
// workload's ops. The virtual-cluster solve runs only here, with nothing
// else running, so its CPU share is the solve's alone.

import (
	"path/filepath"
	"sync"
	"time"
)

// probeSamples is the fewest samples a traced run reports per metric.
const probeSamples = 3

// Probe inputs draw on their own purpose tags.
const (
	tagProbe uint64 = 100 + iota
	tagProbeLP
	tagProbeStream
	tagDefect
)

// ringStats is a set of servers' scrapes before and after some traffic,
// summed over servers.
type ringStats struct {
	before, after metricsPage
	source        string
}

func sumPages(ps []metricsPage) metricsPage {
	out := metricsPage{}
	for _, p := range ps {
		for k, v := range p {
			out[k] += v
		}
	}
	return out
}

// probe records its own ops into rec.
func probe(e *env, w workload, before, after []metricsPage, rec *recorder) {
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	base := w.daemons()[0].url
	spans := func(name string) int { return len(e.tr.durations()[name]) }
	short := func(names ...string) bool {
		for _, n := range names {
			if e.lay.count(n) < probeSamples && spans(n) < probeSamples {
				return true
			}
		}
		return false
	}
	probeUFL := func(r int, dense bool) *ufl {
		return genUFL(rngFor(e.seed, r, tagProbe), e.sz.clusterNF, e.sz.clusterNC, dense, 500, 1500)
	}

	if short("serve.put", "serve.solve_miss_ms", "serve.solve_hit_ms", "core.decode_ms", "durable.put_ms",
		"greedy.solve_ms", "primaldual.solve_ms", "lp.solve_ms") {
		for r := 0; r < probeSamples; r++ {
			u := probeUFL(r, r%2 == 0)
			if hash, ok := e.putOp(rec, hc, base, u); ok {
				e.solveOp(rec, hc, base, hash, u, "greedy-par")
				e.solveOp(rec, hc, base, hash, u, "greedy-par")
				e.solveOp(rec, hc, base, hash, u, "pd-par")
			}
			lp := genUFL(rngFor(e.seed, r, tagProbeLP), e.sz.lpNF, e.sz.lpNC, true, 500, 1500)
			e.solveOp(rec, hc, base, "", lp, "lp-round")
		}
	}

	if short("serve.assign", "serve.nearest", "serve.query_stream", "obs.page_bytes") {
		u := probeUFL(probeSamples, false)
		if hash, ok := e.putOp(rec, hc, base, u); ok {
			qbase := base // on a ring, the owner holds the query structures
			if ds := w.daemons(); len(ds) > 1 {
				if ring, err := ringOf(ds); err == nil {
					owner, _ := ring.Owner(hash)
					qbase = owner.Addr
				}
			}
			if sr, ok := e.solveOp(rec, hc, qbase, hash, u, "greedy-par"); ok {
				sol := &warmSol{u: u, hash: hash, id: sr.ID, solver: "greedy-par", open: sr.rep.Open}
				qr := rngFor(e.seed, 0, tagProbe)
				qs := make([]query, e.sz.bulkLines)
				var body []byte
				for i := range qs {
					qs[i] = query{client: int(qr.next() % uint64(u.nc))}
					body = append(body, qs[i].line()...)
				}
				for r := 0; r < probeSamples; r++ {
					for _, op := range []hotOp{
						{kind: hotAssign, client: int(qr.next() % uint64(u.nc))},
						{kind: hotNearest, x: side * qr.float(), y: side * qr.float()},
						{kind: hotBulk},
						{kind: hotMetrics},
					} {
						e.queryOp(rec, hc, qbase, sol, &op, qs, body, nil, time.Now())
					}
				}
			}
		}
	}

	if short("serve.solve_stream", "mpc.solve_ms", "coreset.build_ms") {
		for r := 0; r < probeSamples; r++ {
			e.streamOp(rec, hc, base, genStream(rngFor(e.seed, r, tagProbeStream), e.sz.streamN, e.sz.streamK))
		}
	}

	// The ring: the workload's own, or a three-shard probe ring.
	ds := w.daemons()
	e.lay.window = ringStats{before: sumPages(before), after: sumPages(after), source: "the workload's servers"}
	e.lay.ring = e.lay.window
	e.lay.ring.source = "the workload's ring"
	if len(ds) == 1 {
		ring, err := startDaemons(filepath.Join(e.dir, "probe-ring"), 3, 0, e.panics)
		if err == nil {
			rb := e.scrape(hc, ring)
			var turn sync.Mutex
			for r := 0; r < probeSamples; r++ {
				u := probeUFL(r, true)
				if hash, ok := e.putOp(rec, hc, ring[0].url, u); ok {
					if ref, ok := e.solveOp(rec, hc, ring[1].url, hash, u, "pd-par"); ok {
						e.distOp(rec, hc, ring[2].url, hash, u, ref, &turn)
					}
				}
			}
			ra := e.scrape(hc, ring)
			stopDaemons(ring)
			e.lay.ring = ringStats{before: sumPages(rb), after: sumPages(ra), source: "a three-shard probe ring"}
		}
	}

	// The library form of pd-dist: timer-bound, so a few samples suffice.
	for r := 0; r < 2; r++ {
		op := e.tr.root("op.virtual-cluster")
		e.lay.distPass(op, probeUFL(r, true))
		op.end()
	}
}
