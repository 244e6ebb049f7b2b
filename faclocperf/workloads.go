package main

// The three traffic mixes. Each workload sets up its servers and inputs,
// then runs its clients until the window closes. Op latency is the HTTP
// exchange as the client sees it. The closed loops generate each round's
// inputs outside the timed window (reported as bench.lag_p90_ms), so the
// generator never competes with the servers for the CPU while ops are
// timed.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// sizes are the workloads' input sizes; tests shrink them.
type sizes struct {
	coldNF, coldNC       int     // cold-solve instances
	lpNF, lpNC           int     // inline lp-round instances
	warm                 int     // hot-query warm instances
	warmNF, warmNC       int     // hot-query warm instances
	writeNF, writeNC     int     // hot-query write instances
	bulkLines            int     // lines per bulk query
	rate                 float64 // hot-query arrivals per second
	clusterNF, clusterNC int     // cluster-rounds instances
	streamN, streamK     int     // cluster-rounds k-median stream
	budget               int64   // /solve-stream budget in bytes
}

var fullSizes = sizes{
	coldNF: 200, coldNC: 2000,
	lpNF: 8, lpNC: 32,
	warm: 24, warmNF: 100, warmNC: 1000,
	writeNF: 20, writeNC: 200,
	bulkLines: 1000,
	rate:      hotRate,
	clusterNF: 40, clusterNC: 400,
	streamN: 100_000, streamK: 8,
	budget: 4 << 20,
}

// hotRate is hot-query's arrival rate: about half the rate at which the
// same mix saturates two connections on a 2-core machine (see
// -saturate).
const hotRate = 1700

// solveSeed is the solver seed of every request.
const solveSeed = 7

// env is one run's shared state.
type env struct {
	seed    int64
	seconds float64
	sz      sizes
	rec     *recorder
	tr      *tracer // nil on untraced runs
	lay     *layers // nil on untraced runs
	panics  *panicCounter
	dir     string
}

// workload is one traffic mix.
type workload interface {
	setup(e *env) error
	// run runs the window and returns its timed length.
	run(e *env, window time.Duration) time.Duration
	daemons() []*daemon
	stop()
}

var workloads = map[string]func() workload{
	"cold-solve":     func() workload { return &coldSolve{} },
	"hot-query":      func() workload { return &hotQuery{} },
	"cluster-rounds": func() workload { return &clusterRounds{} },
}

// ---------- op helpers ----------

// putOp submits u and returns its hash.
func (e *env) putOp(rec *recorder, hc *http.Client, base string, u *ufl) (string, bool) {
	op := e.tr.root("op.put")
	h := op.child("serve.put")
	r := do(hc, http.MethodPost, base+"/instances", u.body)
	d := h.end()
	var hash string
	var err error
	if r.failure() == "" {
		hash, err = checkPut(r.body, u)
	}
	ok := rec.add("put", u.form(), d, r, err, 0)
	e.lay.putPass(op, u, hash)
	op.end()
	return hash, ok
}

// solveOp solves u by hash (or inline when hash is empty) and checks the
// answer.
func (e *env) solveOp(rec *recorder, hc *http.Client, base, hash string, u *ufl, solver string) (*solveResp, bool) {
	var body []byte
	if hash == "" {
		body = fmt.Appendf(nil, `{"solver":%q,"seed":%d,"instance":%s}`, solver, solveSeed, u.body)
	} else {
		body = fmt.Appendf(nil, `{"hash":%q,"solver":%q,"seed":%d}`, hash, solver, solveSeed)
	}
	op := e.tr.root("op." + solver)
	h := op.child("serve.solve")
	r := do(hc, http.MethodPost, base+"/solve", body)
	d := h.end()
	var sr *solveResp
	var err error
	if r.failure() == "" {
		sr, err = checkSolve(r.body, u, solver)
	}
	ratio := 0.0
	if sr != nil {
		ratio = sr.rep.Cost / u.lower
	}
	ok := rec.add(solver, u.form(), d, r, err, ratio)
	if sr != nil {
		e.lay.solved(h.name, d, sr)
	}
	e.lay.solvePass(op, u, solver)
	op.end()
	return sr, ok
}

// fetchOp reads a solution back with GET /solutions/{id} and requires the
// stored report to equal the one the solve returned, byte for byte.
func (e *env) fetchOp(rec *recorder, hc *http.Client, base string, sr *solveResp, form string) {
	op := e.tr.root("op.fetch")
	h := op.child("serve.fetch")
	r := do(hc, http.MethodGet, base+"/solutions/"+sr.ID, nil)
	d := h.end()
	var err error
	if r.failure() == "" {
		var got solveResp
		if jerr := json.Unmarshal(r.body, &got); jerr != nil || got.ID != sr.ID || !bytes.Equal(got.Report, sr.Report) {
			err = wrongf("solution %s read back differs from the solve's report", sr.ID)
		}
	}
	rec.add("fetch", form, d, r, err, 0)
	op.end()
}

// warmSolve is solveOp for set-up work: a failure aborts the run.
func (e *env) warmSolve(hc *http.Client, base string, u *ufl, solver string) (string, *solveResp, error) {
	rec := newRecorder()
	hash, _ := e.putOp(rec, hc, base, u)
	var sr *solveResp
	if hash != "" {
		sr, _ = e.solveOp(rec, hc, base, hash, u, solver)
	}
	for _, o := range rec.ops {
		if !o.ok {
			return "", nil, fmt.Errorf("set-up %s: %s (%s)", solver, o.reason, rec.examples[o.reason])
		}
	}
	return hash, sr, nil
}

// scrape reads every daemon's /metrics page.
func (e *env) scrape(hc *http.Client, ds []*daemon) []metricsPage {
	pages := make([]metricsPage, len(ds))
	for i, d := range ds {
		op := e.tr.root("op.metrics")
		h := op.child("serve.metrics")
		r := do(hc, http.MethodGet, d.url+"/metrics", nil)
		dur := h.end()
		op.end()
		if r.failure() == "" {
			pages[i] = parsePage(r.body)
			e.lay.add("obs.scrape_ms", dur)
			e.lay.add("obs.page_bytes", float64(len(r.body)))
		}
	}
	return pages
}

// ---------- cold-solve ----------

// coldSolve: closed loop in rounds, two clients, one durable server. Every cycle
// submits a fresh instance, solves it with greedy-par and pd-par and reads
// each solution back, and solves a fresh small instance inline with
// lp-round; every solve misses the cache. The two read-backs per cycle put
// p50 among the solves and p90 among the lp-round solves rather than
// between kinds.
type coldSolve struct {
	ds []*daemon
	hc *http.Client
}

// coldInstances caps cold-solve's in-memory instance store. Every cycle
// stores a fresh 200×2000 instance (a 3.2 MB matrix), so under the
// server's default cap of 4096 the heap, and with it the garbage
// collector's work and the peak RSS, would grow with the number of rounds
// that fit in the window; at this cap they stop growing after a few
// seconds.
const coldInstances = 64

func (w *coldSolve) setup(e *env) error {
	ds, err := startDaemons(e.dir, 1, coldInstances, e.panics)
	if err != nil {
		return err
	}
	w.ds, w.hc = ds, newHTTPClient(2)
	return warmUp(e, w.cycle)
}

func (w *coldSolve) daemons() []*daemon { return w.ds }

func (w *coldSolve) stop() {
	stopDaemons(w.ds)
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
}

func (w *coldSolve) run(e *env, window time.Duration) time.Duration {
	return closedLoop(e, window, w.cycle)
}

// cycle generates client k's inputs for cycle c and returns the requests
// that send them. Instances alternate dense and point form, and the two
// clients start on different forms.
func (w *coldSolve) cycle(e *env, k, c int) func(rec *recorder) {
	op := 2*c + k
	u := genUFL(rngFor(e.seed, op, tagUFL), e.sz.coldNF, e.sz.coldNC, (c+k)%2 == 0, 500, 1500)
	lp := genUFL(rngFor(e.seed, op, tagLP), e.sz.lpNF, e.sz.lpNC, true, 500, 1500)
	return func(rec *recorder) {
		base := w.ds[0].url
		if hash, ok := e.putOp(rec, w.hc, base, u); ok {
			for _, solver := range []string{"greedy-par", "pd-par"} {
				if sr, ok := e.solveOp(rec, w.hc, base, hash, u, solver); ok {
					e.fetchOp(rec, w.hc, base, sr, u.form())
				}
			}
		}
		e.solveOp(rec, w.hc, base, "", lp, "lp-round")
	}
}

// cycleFunc generates client k's inputs for cycle c and returns the
// requests that send them, recording into rec.
type cycleFunc func(e *env, k, c int) func(rec *recorder)

// round generates both clients' inputs for cycle c, untimed, then sends
// both clients' requests at once and returns how long the sending took.
func round(e *env, rec *recorder, c int, cycle cycleFunc) time.Duration {
	var sends [2]func(*recorder)
	start := time.Now()
	both(func(k int) { sends[k] = cycle(e, k, c) })
	rec.lag(ms(time.Since(start)))
	start = time.Now()
	both(func(k int) { sends[k](rec) })
	return time.Since(start)
}

// both runs f(0) and f(1) concurrently and waits for them.
func both(f func(k int)) {
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(k)
		}()
	}
	wg.Wait()
}

// warmUp runs round 0 untimed, so the servers' lazy set-up and first
// allocations finish before the window; the window starts at round 1.
func warmUp(e *env, cycle cycleFunc) error {
	rec := newRecorder()
	round(e, rec, 0, cycle)
	if len(rec.wrong) > 0 {
		return fmt.Errorf("warm-up: wrong answer: %s", rec.wrong[0])
	}
	return nil
}

// closedLoop runs rounds from round 1 until their timed parts add up to
// the window, and returns that sum. In each round both clients run one
// cycle; a client that finishes first waits for the other, so the two
// never drift into generating while the other's requests are timed.
func closedLoop(e *env, window time.Duration, cycle cycleFunc) time.Duration {
	var timed time.Duration
	for c := 1; timed < window; c++ {
		timed += round(e, e.rec, c, cycle)
	}
	return timed
}

// ---------- hot-query ----------

// hotQuery: open loop at a fixed arrival rate against one durable server
// warmed with solved point-form instances. No solver runs in the window:
// the mix is cache-hit replays, single and bulk queries, metrics scrapes,
// and a small share of instance writes.
type hotQuery struct {
	ds     []*daemon
	hc     *http.Client
	warm   []*warmSol
	sched  *schedule
	bulk   [][]query
	bodies [][]byte
}

// warmSol is one solved warm instance.
type warmSol struct {
	u      *ufl
	hash   string
	id     string
	solver string
	open   []int
	report []byte  // the verified response, replayed byte for byte
	ratio  float64 // its cost ÷ the instance's lower bound
}

type hotKind int

const (
	hotSolveHit hotKind = iota
	hotAssign
	hotNearest
	hotBulk
	hotMetrics
	hotWrite
)

// hotMix is the share of each kind, in hotKind order. The three single
// lookups (about 0.3 ms each) take 72% and metrics scrapes 6%, so p50
// falls among the lookups; bulk queries (about 1.5 ms) take 20%, so p90
// falls inside them.
var hotMix = [...]float64{0.22, 0.25, 0.25, 0.20, 0.06, 0.02}

type hotOp struct {
	at     time.Duration // due, from the schedule's start
	kind   hotKind
	sol    int // warm solution index
	client int // assign: client index
	x, y   float64
	arg    int // bulk: body index; write: index into schedule.writes
}

// schedule is a seeded Poisson arrival sequence and the fresh instances
// its writes send.
type schedule struct {
	ops    []hotOp
	writes []*ufl
}

// hotBulkBodies is how many distinct bulk-query bodies rotate through the
// window.
const hotBulkBodies = 48

// hotWarmUp is the length of the untimed warm-up traffic.
const hotWarmUp = time.Second

func (w *hotQuery) setup(e *env) error {
	ds, err := startDaemons(e.dir, 1, 0, e.panics)
	if err != nil {
		return err
	}
	w.ds, w.hc = ds, newHTTPClient(2)
	base := ds[0].url
	for i := 0; i < e.sz.warm; i++ {
		u := genUFL(rngFor(e.seed, i, tagWarm), e.sz.warmNF, e.sz.warmNC, false, 500, 1500)
		for _, solver := range []string{"greedy-par", "pd-par"} {
			hash, sr, err := e.warmSolve(w.hc, base, u, solver)
			if err != nil {
				return err
			}
			w.warm = append(w.warm, &warmSol{u: u, hash: hash, id: sr.ID, solver: solver, open: sr.rep.Open,
				report: hitBody(sr), ratio: sr.rep.Cost / u.lower})
		}
	}
	for b := 0; b < hotBulkBodies; b++ {
		qr := rngFor(e.seed, b, tagQuery)
		qs := make([]query, e.sz.bulkLines)
		var body []byte
		for i := range qs {
			if i%2 == 0 {
				qs[i] = query{client: int(qr.next() % uint64(e.sz.warmNC))}
			} else {
				qs[i] = query{client: -1, x: side * qr.float(), y: side * qr.float()}
			}
			body = append(body, qs[i].line()...)
		}
		w.bulk, w.bodies = append(w.bulk, qs), append(w.bodies, body)
	}
	rec := newRecorder()
	w.runSchedule(e, rec, w.newSchedule(e, tagWarmUp, hotWarmUp))
	if len(rec.wrong) > 0 {
		return fmt.Errorf("warm-up: wrong answer: %s", rec.wrong[0])
	}
	w.sched = w.newSchedule(e, tagSchedule, time.Duration(e.seconds*float64(time.Second)))
	return nil
}

// newSchedule draws a window's arrivals from the stream tag selects.
func (w *hotQuery) newSchedule(e *env, tag uint64, window time.Duration) *schedule {
	r := rngFor(e.seed, 0, tag)
	s := &schedule{}
	for at := time.Duration(0); ; {
		at += time.Duration(-math.Log(1-r.float()) / e.sz.rate * float64(time.Second))
		if at >= window {
			return s
		}
		op := hotOp{at: at, kind: pickKind(r.float()), sol: int(r.next() % uint64(len(w.warm)))}
		switch op.kind {
		case hotAssign:
			op.client = int(r.next() % uint64(w.warm[op.sol].u.nc))
		case hotNearest:
			op.x, op.y = side*r.float(), side*r.float()
		case hotBulk:
			op.arg = int(r.next() % hotBulkBodies)
		case hotWrite:
			op.arg = len(s.writes)
			s.writes = append(s.writes, genUFL(rngFor(e.seed, op.arg, tagWrite<<8|tag), e.sz.writeNF, e.sz.writeNC, false, 500, 1500))
		}
		s.ops = append(s.ops, op)
	}
}

// hitBody is the response a cache-hit replay of sr must return.
func hitBody(sr *solveResp) []byte {
	return fmt.Appendf(nil, `{"id":%q,"instance_hash":%q,"cached":true,"report":%s}`, sr.ID, sr.InstanceHash, sr.Report)
}

func pickKind(u float64) hotKind {
	for k, share := range hotMix {
		if u < share {
			return hotKind(k)
		}
		u -= share
	}
	return hotWrite
}

func (w *hotQuery) daemons() []*daemon { return w.ds }

func (w *hotQuery) stop() {
	stopDaemons(w.ds)
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
}

func (w *hotQuery) run(e *env, _ time.Duration) time.Duration {
	start := time.Now()
	w.runSchedule(e, e.rec, w.sched)
	return time.Since(start)
}

// runSchedule sends each op when it is due over two connections. An op is
// timed from its due time when it had to wait for a connection; when a
// connection sat idle until the op was due, it is timed from when it was
// sent, so the generator's own wake-up lateness (reported as lag) does not
// count as the server's.
func (w *hotQuery) runSchedule(e *env, rec *recorder, s *schedule) {
	ops := make(chan int, len(s.ops)) // holds the whole schedule
	for i := range s.ops {
		ops <- i
	}
	close(ops)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ops {
				op := &s.ops[i]
				due := start.Add(op.at)
				pulled := time.Now()
				if d := time.Until(due); d > 0 {
					pause(d)
				}
				sent := time.Now()
				rec.lag(ms(sent.Sub(due)))
				from := sent
				if !pulled.Before(due) {
					from = due
				}
				var write *ufl
				if op.kind == hotWrite {
					write = s.writes[op.arg]
				}
				var bulk []query
				var body []byte
				if op.kind == hotBulk {
					bulk, body = w.bulk[op.arg], w.bodies[op.arg]
				}
				e.queryOp(rec, w.hc, w.ds[0].url, w.warm[op.sol], op, bulk, body, write, from)
			}
		}()
	}
	wg.Wait()
}

// queryOp sends one hot-query op against solution sol: bulk and bulkBody
// are a bulk query's lines, write a write's instance.
func (e *env) queryOp(rec *recorder, hc *http.Client, base string, sol *warmSol, op *hotOp, bulk []query, bulkBody []byte, write *ufl, from time.Time) {
	var kind, endpoint, method, u string
	var body []byte
	switch op.kind {
	case hotSolveHit:
		kind, endpoint, method, u = "solve-hit", "solve", http.MethodPost, base+"/solve"
		body = fmt.Appendf(nil, `{"hash":%q,"solver":%q,"seed":%d}`, sol.hash, sol.solver, solveSeed)
	case hotAssign:
		kind, endpoint, method = "assign", "assign", http.MethodGet
		u = fmt.Sprintf("%s/solutions/%s/assign?client=%d", base, sol.id, op.client)
	case hotNearest:
		kind, endpoint, method = "nearest", "nearest", http.MethodGet
		u = fmt.Sprintf("%s/solutions/%s/nearest?x=%s,%s", base, sol.id, fmtFloat(op.x), fmtFloat(op.y))
	case hotBulk:
		kind, endpoint, method, u = "query-stream", "query_stream", http.MethodPost, base+"/solutions/"+sol.id+"/query"
		body = bulkBody
	case hotMetrics:
		kind, endpoint, method, u = "metrics", "metrics", http.MethodGet, base+"/metrics"
	case hotWrite:
		kind, endpoint, method, u = "put", "put", http.MethodPost, base+"/instances"
		body = write.body
	}
	span := e.tr.root("op." + kind)
	h := span.child("serve." + endpoint)
	span.start, h.start = from, from
	r := do(hc, method, u, body)
	d := h.end()
	var err error
	form := ""
	if r.failure() == "" || (op.kind == hotBulk && r.read) {
		switch op.kind {
		case hotSolveHit:
			if string(r.body) != string(sol.report)+"\n" {
				err = wrongf("cache-hit replay of %s differs from the verified report", sol.id)
			}
			e.lay.add("serve.solve_hit_ms", d)
		case hotAssign:
			var a answer
			if err = jsonAnswer(r.body, &a); err == nil {
				err = checkAssign(&a, sol.u, sol.open, op.client)
			}
		case hotNearest:
			var a answer
			if err = jsonAnswer(r.body, &a); err == nil {
				err = checkNearest(&a, sol.u, sol.open, op.x, op.y)
			}
		case hotBulk:
			form = "points"
			err = checkQueryStream(r.body, r.err, sol.u, sol.open, bulk, 16)
			if err != nil && r.read {
				r.err, r.read = nil, false // the abort is reported through err
			}
		case hotMetrics:
			e.lay.add("obs.page_bytes", float64(len(r.body)))
		case hotWrite:
			form = "points"
			_, err = checkPut(r.body, write)
			e.lay.putPass(span, write, "")
		}
	}
	ratio := 0.0
	if op.kind == hotSolveHit && err == nil && r.failure() == "" {
		ratio = sol.ratio
	}
	rec.add(kind, form, d, r, err, ratio)
	span.end()
}

// pause sleeps for d in the kernel. Go's timers round sub-millisecond
// sleeps up to about a millisecond on Linux, longer than most hot-query
// ops; nanosleep wakes within about 0.1 ms.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep only wakes early
}

// ---------- cluster-rounds ----------

// clusterRounds: closed loop, two clients spread over a three-shard ring.
// Every cycle streams two k-median instances through kmedian-mpc, submits
// an instance (replicated to a ring successor) and solves it with pd-par
// (forwarded to the owner); a dense instance is then solved with pd-dist
// (a three-shard frame exchange). A point-form pd-dist fails on every
// input (known defect 2), so it is not among the window's ops, whose
// failure count must not depend on how many rounds fit in the window; a
// fixed set of point-form pd-dist requests after the window counts the
// defect instead (defectProbe). A round of one dense and one point-form
// cycle has 9 ops: 4 requests of a few to about 50 milliseconds, then 4
// streams and the dense pd-dist solve of about 0.5–0.6 s. So p50 falls
// among the streams and p90 among the streams and the pd-dist solve. On a
// shared host, requests of a few milliseconds slow by about twice the share
// the host slows by, so a p50 among them moved more from one set of runs
// to the next than the bound allows. The streams go first, so the two
// clients' streams run together.
type clusterRounds struct {
	ds   []*daemon
	hcs  [2]*http.Client
	ring *cluster.Ring
	turn sync.Mutex // held while a pd-dist request runs
}

func (w *clusterRounds) setup(e *env) error {
	ds, err := startDaemons(e.dir, 3, 0, e.panics)
	if err != nil {
		return err
	}
	w.ds = ds
	if w.ring, err = ringOf(ds); err != nil {
		return err
	}
	for k := range w.hcs {
		w.hcs[k] = newHTTPClient(1)
	}
	return warmUp(e, w.cycle)
}

// ringOf builds the ring the shards build from the same member list, so
// the client can locate an instance's owner and replica.
func ringOf(ds []*daemon) (*cluster.Ring, error) {
	members := make([]cluster.Member, len(ds))
	for i, d := range ds {
		members[i] = cluster.Member{ID: d.url, Addr: d.url}
	}
	return cluster.NewRing(members, 0)
}

func (w *clusterRounds) daemons() []*daemon { return w.ds }

func (w *clusterRounds) stop() {
	stopDaemons(w.ds)
	for _, hc := range w.hcs {
		if hc != nil {
			hc.CloseIdleConnections()
		}
	}
}

func (w *clusterRounds) run(e *env, window time.Duration) time.Duration {
	return closedLoop(e, window, w.cycle)
}

// cycle generates client k's inputs for cycle c and returns the requests
// that send them. The requests enter at rotating shards:
// the put replicates to a ring successor and the pd-par solve is
// forwarded to the owner. pd-dist goes to the owner directly, located with
// the ring every shard builds from the same member list: sent through
// another shard, each point-form panic is retried by the forward path,
// opens that shard's breaker for the owner and marks it dead, and the
// ring then fails puts and stalls dense pd-dist for seconds.
//
// The ring runs one distributed solve at a time (each shard has one
// exchange slot and refuses a second solve), so the clients take turns at
// pd-dist; the wait for the turn counts in the op's latency.
func (w *clusterRounds) cycle(e *env, k, c int) func(rec *recorder) {
	op := 2*c + k
	u := genUFL(rngFor(e.seed, op, tagUFL), e.sz.clusterNF, e.sz.clusterNC, (c+k)%2 == 0, 500, 1500)
	var ks [2]*kstream
	for i := range ks {
		ks[i] = genStream(rngFor(e.seed, 2*op+i, tagStream), e.sz.streamN, e.sz.streamK)
	}
	return func(rec *recorder) {
		hc := w.hcs[k]
		entry := func(step int) string { return w.ds[(k+c+step)%len(w.ds)].url }
		for i, s := range ks {
			e.streamOp(rec, hc, entry(i), s)
		}
		if hash, ok := e.putOp(rec, hc, entry(0), u); ok {
			if ref, ok := e.solveOp(rec, hc, entry(1), hash, u, "pd-par"); ok && u.dense {
				e.distOp(rec, hc, w.ring.Successors(hash, 1)[0].Addr, hash, u, ref, &w.turn)
			}
		}
	}
}

// defectProbes is the number of point-form pd-dist requests defectProbe
// sends.
const defectProbes = 2

// defectProbe runs after the window: it submits defectProbes point-form
// instances and solves each with pd-par and then with pd-dist at the
// owner, into rec. On the seed every pd-dist here fails (known defect 2);
// once it is fixed each must equal pd-par bitwise. The count is fixed, so
// it is the same in every run.
func (w *clusterRounds) defectProbe(e *env, rec *recorder) {
	hc := w.hcs[0]
	for r := 0; r < defectProbes; r++ {
		u := genUFL(rngFor(e.seed, r, tagDefect), e.sz.clusterNF, e.sz.clusterNC, false, 500, 1500)
		if hash, ok := e.putOp(rec, hc, w.ds[r%len(w.ds)].url, u); ok {
			if ref, ok := e.solveOp(rec, hc, w.ds[(r+1)%len(w.ds)].url, hash, u, "pd-par"); ok {
				e.distOp(rec, hc, w.ring.Successors(hash, 1)[0].Addr, hash, u, ref, &w.turn)
			}
		}
	}
}

// distOp solves by pd-dist, taking turn (held while the request runs), and
// requires the answer to equal pd-par's bitwise.
func (e *env) distOp(rec *recorder, hc *http.Client, base, hash string, u *ufl, ref *solveResp, turn *sync.Mutex) {
	body := fmt.Appendf(nil, `{"hash":%q,"solver":"pd-dist","seed":%d}`, hash, solveSeed)
	op := e.tr.root("op.pd-dist")
	h := op.child("serve.pd_dist")
	turn.Lock()
	r := do(hc, http.MethodPost, base+"/solve", body)
	turn.Unlock()
	d := h.end()
	var sr *solveResp
	var err error
	if r.failure() == "" {
		if sr, err = checkSolve(r.body, u, "pd-dist"); err == nil && !sameSolution(&sr.rep, &ref.rep) {
			err = wrongf("pd-dist solution differs from pd-par on %s", hash)
		}
	}
	ratio := 0.0
	if err == nil && sr != nil {
		ratio = sr.rep.Cost / u.lower
		e.lay.solved(h.name, d, sr)
	}
	rec.add("pd-dist", u.form(), d, r, err, ratio)
	op.end()
}

// streamOp streams ks through kmedian-mpc under the configured budget.
func (e *env) streamOp(rec *recorder, hc *http.Client, base string, ks *kstream) bool {
	op := e.tr.root("op.kmedian-mpc")
	h := op.child("serve.solve_stream")
	u := fmt.Sprintf("%s/solve-stream?solver=kmedian-mpc&seed=%d&budget=%d", base, solveSeed, e.sz.budget)
	r := do(hc, http.MethodPost, u, ks.body)
	d := h.end()
	var err error
	if r.failure() == "" {
		_, err = checkStream(r.body, ks, e.sz.budget)
	}
	ok := rec.add("kmedian-mpc", "", d, r, err, 0)
	e.lay.streamPass(op, ks, e.sz.budget)
	op.end()
	return ok
}

func jsonAnswer(b []byte, a *answer) error {
	if err := json.Unmarshal(b, a); err != nil {
		return wrongf("undecodable answer: %v", err)
	}
	return nil
}
