package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	facloc "repro"
	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// TraceHeader carries a solve's trace id end to end: a client may supply it
// on POST /solve, forwarding and distributed fan-out propagate it, and the
// response echoes the id actually used — the key into GET /debug/solves.
const TraceHeader = "X-Facloc-Trace"

// Handler returns the HTTP surface of the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /solvers", s.handleSolvers)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/solves", s.handleDebugSolves)
	mux.HandleFunc("POST /instances", s.handlePutInstance)
	mux.HandleFunc("GET /instances/{hash}", s.handleGetInstance)
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /solve-stream", s.handleSolveStream)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("GET /solutions/{id}", s.handleGetSolution)
	mux.HandleFunc("GET /solutions/{id}/assign", s.handleAssign)
	mux.HandleFunc("GET /solutions/{id}/nearest", s.handleNearest)
	mux.HandleFunc("POST /solutions/{id}/query", s.handleQueryStream)
	mux.HandleFunc("POST "+cluster.FramePath, s.handleClusterFrame)
	mux.HandleFunc("GET /cluster/ring", s.handleClusterRing)
	mux.HandleFunc("POST /cluster/solve", s.handleClusterSolve)
	return mux
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// status maps a solve-path error onto its HTTP status.
func status(err error) int {
	var unknown *unknownSolverError
	var tooLarge *tooLargeError
	switch {
	case errors.Is(err, errBodyTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errQueueFull), errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case durable.IsWriteError(err):
		// The disk, not the request, is the problem: a failed persist is a
		// retryable server-side fault, never the client's 4xx.
		return http.StatusServiceUnavailable
	case errors.Is(err, resilience.ErrBudgetExhausted):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.As(err, &unknown):
		return http.StatusNotFound
	case errors.As(err, &tooLarge):
		return http.StatusBadRequest
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type solverInfo struct {
	Name string `json:"name"`
	// Kind is "ufl" (accepted by /solve and /batch) or "k-clustering"
	// (registry discovery only — the daemon has no k-instance endpoint yet).
	Kind      string `json:"kind"`
	Guarantee string `json:"guarantee"`
	Objective string `json:"objective,omitempty"`
}

func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	var out []solverInfo
	for _, sv := range facloc.Solvers() {
		out = append(out, solverInfo{Name: sv.Name(), Kind: "ufl", Guarantee: sv.Guarantee().String()})
	}
	for _, sv := range facloc.KSolvers() {
		out = append(out, solverInfo{
			Name: sv.Name(), Kind: "k-clustering",
			Guarantee: sv.Guarantee().String(), Objective: sv.Objective().String(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics serves the Prometheus text page. The registry renders the
// whole page into one buffer under its lock and writes it in a single call,
// so a scrape racing EnableCluster (or any late registration) sees either
// the page before or after — never a torn view.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WriteText(w)
}

// handleDebugSolves dumps the flight recorder: the most recent solve traces,
// newest first, in the obs.SolveTrace JSON schema.
func (s *Server) handleDebugSolves(w http.ResponseWriter, r *http.Request) {
	ts := s.flight.Snapshot()
	if ts == nil {
		ts = []*obs.SolveTrace{}
	}
	writeJSON(w, http.StatusOK, ts)
}

type instanceMeta struct {
	Hash    string `json:"hash"`
	NF      int    `json:"nf"`
	NC      int    `json:"nc"`
	Backing string `json:"backing"`
	Created bool   `json:"created"`
	// Degraded marks a put acknowledged at quorum rather than by the full
	// replica set (allow_degraded only); the caller should expect eventual
	// repair rather than full durability.
	Degraded bool `json:"degraded,omitempty"`
}

func backing(in *facloc.Instance) string {
	if in.Points != nil {
		return "points"
	}
	return "dense"
}

func (s *Server) handlePutInstance(w http.ResponseWriter, r *http.Request) {
	bctx, bcancel, err := resilience.FromHeader(r.Context(), r.Header)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer bcancel()
	body, err := readCapped(r.Body, s.cfg.maxBody())
	if err != nil {
		writeError(w, status(err), err)
		return
	}
	in, err := facloc.ReadInstance(bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hash, created, err := s.st.putInstance(in)
	if err != nil {
		writeError(w, status(err), err)
		return
	}
	// Replication runs on every clustered put, not only the creating one:
	// content addressing makes it idempotent, and a put retried after a
	// replication shortfall must be able to finish the job rather than
	// short-circuit on "already stored locally".
	degraded := false
	{
		acked, total, repErr := s.replicateInstance(bctx, r, hash, body)
		if acked < total {
			// The instance IS stored locally, so a retry of the same body is
			// idempotent — the question is only what replication we promise.
			// Default: every replica acks or the put fails loudly. With
			// allow_degraded, a majority quorum acks the put, labeled degraded.
			quorum := total/2 + 1
			if !boolParam(r.URL.Query().Get("allow_degraded")) || acked < quorum {
				writeError(w, http.StatusServiceUnavailable, fmt.Errorf(
					"serve: instance %s replicated to %d of %d replicas: %w", hash, acked, total, repErr))
				return
			}
			degraded = true
			s.cl.quorumPuts.Add(1)
			s.cl.degradedServed.Add(1)
		}
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, instanceMeta{
		Hash: hash, NF: in.NF, NC: in.NC, Backing: backing(in),
		Created: created, Degraded: degraded,
	})
}

func (s *Server) handleGetInstance(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	in, ok := s.st.instance(hash)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no instance %s", hash))
		return
	}
	writeJSON(w, http.StatusOK, instanceMeta{Hash: hash, NF: in.NF, NC: in.NC, Backing: backing(in)})
}

// reportView is the wire form of a cached Report, rendered once at
// cache-insertion time and replayed verbatim on every hit.
type reportView struct {
	Solver         string  `json:"solver"`
	Guarantee      string  `json:"guarantee"`
	Seed           int64   `json:"seed"`
	Cost           float64 `json:"cost"`
	FacilityCost   float64 `json:"facility_cost"`
	ConnectionCost float64 `json:"connection_cost"`
	Open           []int   `json:"open"`
	Clients        int     `json:"clients"`
	Work           int64   `json:"work"`
	Span           int64   `json:"span"`
	WallMS         float64 `json:"wall_ms"`
}

func renderReport(e *entry) []byte {
	rep := e.report
	b, err := json.Marshal(reportView{
		Solver:         rep.Solver,
		Guarantee:      rep.Guarantee.String(),
		Seed:           e.seed,
		Cost:           rep.Solution.Cost(),
		FacilityCost:   rep.Solution.FacilityCost,
		ConnectionCost: rep.Solution.ConnectionCost,
		Open:           rep.Solution.Open,
		Clients:        len(rep.Solution.Assign),
		Work:           rep.Stats.Work,
		Span:           rep.Stats.Span,
		WallMS:         float64(rep.Stats.WallTime) / float64(time.Millisecond),
	})
	if err != nil {
		panic("serve: rendering report: " + err.Error()) // fixed struct, cannot fail
	}
	return b
}

type solveResponse struct {
	ID           string `json:"id"`
	InstanceHash string `json:"instance_hash"`
	Cached       bool   `json:"cached"`
	// Degraded marks a pd-dist request served by the local fallback solver
	// because the ring was impaired (allow_degraded only). The report is a
	// real pd-par solution — same guarantee, different computation — and is
	// never cached under the clean pd-dist key.
	Degraded bool            `json:"degraded,omitempty"`
	Report   json.RawMessage `json:"report"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	// A caller's remaining deadline budget arrives on the wire; everything
	// this request does — forwarding, fan-out, the solve itself — runs inside
	// it, with the shrinking remainder re-stamped on every outbound hop.
	bctx, bcancel, err := resilience.FromHeader(r.Context(), r.Header)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer bcancel()
	req, inline, err := DecodeSolveRequest(r.Body, s.cfg.maxBody())
	if err != nil {
		writeError(w, status(err), err)
		return
	}
	// Settle the trace id up front and write it back into the request
	// header, so a forwarded request carries the same id and the shard that
	// solves records under it.
	traceID, ok := obs.ParseTraceID(r.Header.Get(TraceHeader))
	if !ok {
		traceID = obs.NewTraceID()
		r.Header.Set(TraceHeader, obs.FormatTraceID(traceID))
	}
	w.Header().Set(TraceHeader, obs.FormatTraceID(traceID))
	var in *facloc.Instance
	var instHash string
	if inline != nil {
		// Inline instances enter the store too, so follow-ups can go by hash.
		instHash, _, err = s.st.putInstance(inline)
		if err != nil {
			writeError(w, status(err), err)
			return
		}
		in = inline
	} else {
		var ok bool
		in, ok = s.st.instance(req.Hash)
		if !ok {
			// Another shard may hold it: route by the hash before 404ing.
			if s.forwardSolve(bctx, w, r, req, nil, req.Hash) {
				return
			}
			writeError(w, http.StatusNotFound, fmt.Errorf("serve: no instance %s (POST /instances first)", req.Hash))
			return
		}
		instHash = req.Hash
	}

	opts := req.Options(s.cfg.denseLimit())
	solver, err := s.route(in, req.Solver, opts.DenseLimit)
	if err != nil {
		writeError(w, status(err), err)
		return
	}

	// Cache hits are O(1) byte replays: serve them before admission, so a
	// saturated queue (or a draining server) never turns a replay into a
	// 503.
	if e, ok := s.cached(instHash, solver.Name(), opts); ok {
		writeJSON(w, http.StatusOK, solveResponse{
			ID: e.id, InstanceHash: e.instHash, Cached: true, Report: e.reportJSON,
		})
		return
	}

	// A clustered miss solves on the shard owning the instance (one hop —
	// a forwarded request is always served where it lands).
	if s.forwardSolve(bctx, w, r, req, in, instHash) {
		return
	}

	release, err := s.acquire(bctx)
	if err != nil {
		writeError(w, status(err), err)
		return
	}
	defer release()

	ctx, cancel := s.solveContext(bctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	defer cancel()
	var e *entry
	hit := false
	degraded := false
	if s.cl != nil && solver.Name() == DistSolverName {
		// The real thing: every faclocd shard runs one leg, frames over HTTP.
		e, degraded, err = s.distSolve(ctx, in, instHash, opts, traceID, req.AllowDegraded)
		if err == nil && !degraded {
			s.replicateEntry(ctx, e)
		}
	} else {
		e, hit, err = s.solve(ctx, in, instHash, solver, opts, traceID)
	}
	if err != nil {
		writeError(w, status(err), err)
		return
	}
	writeJSON(w, http.StatusOK, solveResponse{
		ID: e.id, InstanceHash: e.instHash, Cached: hit, Degraded: degraded, Report: e.reportJSON,
	})
}

// flushWriter flushes the response after every write so NDJSON consumers
// see lines as they are produced, not when the stream ends.
type flushWriter struct {
	w  io.Writer
	rc *http.ResponseController
}

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if err == nil {
		_ = f.rc.Flush()
	}
	return n, err
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("solver")
	if name == "" {
		writeError(w, http.StatusBadRequest, errors.New("serve: /batch needs a solver query parameter"))
		return
	}
	inner, ok := facloc.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, &unknownSolverError{name: name})
		return
	}
	seed, err1 := intParam(q.Get("seed"), 0)
	jobs, err2 := intParam(q.Get("jobs"), 0)
	timeoutMS, err3 := intParam(q.Get("timeout_ms"), 0)
	workers, err4 := intParam(q.Get("workers"), 0)
	denseLimit, err5 := intParam(q.Get("dense_limit"), 0)
	eps := 0.0
	var err6 error
	if v := q.Get("eps"); v != "" {
		eps, err6 = strconv.ParseFloat(v, 64)
	}
	if err := errors.Join(err1, err2, err3, err4, err5, err6); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if jobs <= 0 || jobs > int64(s.cfg.batchJobs()) {
		jobs = int64(s.cfg.batchJobs())
	}

	release, err := s.acquire(r.Context())
	if err != nil {
		writeError(w, status(err), err)
		return
	}
	defer release()
	s.met.batchTotal.Add(1)
	batchStart := time.Now()
	defer func() { s.batchDur.Observe(time.Since(batchStart).Seconds()) }()

	dl := int(denseLimit)
	if dl <= 0 {
		dl = s.cfg.denseLimit()
	}
	b := facloc.NewBatch(&cachingSolver{s: s, inner: inner}, facloc.BatchOptions{
		Jobs:       int(jobs),
		Timeout:    time.Duration(timeoutMS) * time.Millisecond,
		MasterSeed: seed,
		Base: facloc.Options{
			Epsilon:    eps,
			Workers:    int(workers),
			TrackCost:  true,
			DenseLimit: dl,
		},
	})

	ctx, cancel := s.solveContext(r.Context(), 0)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	// Results stream out while instances are still being read in; HTTP/1
	// needs explicit opt-in for that (HTTP/2 is always full-duplex).
	_ = rc.EnableFullDuplex()
	out := flushWriter{w: w, rc: rc}
	if _, _, err := WriteBatch(ctx, b, facloc.NewInstanceStream(r.Body), out); err != nil {
		// Lines may already be on the wire; the only honest failure signal
		// left is an aborted connection, which the client sees as an
		// unexpected EOF instead of a silently truncated (but well-formed)
		// stream.
		panic(http.ErrAbortHandler)
	}
}

func intParam(v string, def int64) (int64, error) {
	if v == "" {
		return def, nil
	}
	return strconv.ParseInt(v, 10, 64)
}

// boolParam reads a query-flag value: present and not explicitly false.
func boolParam(v string) bool {
	switch strings.ToLower(v) {
	case "", "0", "false", "no":
		return false
	}
	return true
}

func (s *Server) lookupHandle(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	id := r.PathValue("id")
	e, ok := s.st.solution(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no cached solution %s", id))
		return nil, false
	}
	return e, true
}

// lookupQueryHandle is lookupHandle for the query path: entries replicated
// from another shard without their instance have no query structures, and
// answering without them would require the instance's distances.
func (s *Server) lookupQueryHandle(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	e, ok := s.lookupHandle(w, r)
	if !ok {
		return nil, false
	}
	if e.handle == nil {
		writeError(w, http.StatusConflict, fmt.Errorf(
			"serve: solution %s was replicated without its instance; query the shard owning instance %s", e.id, e.instHash))
		return nil, false
	}
	return e, true
}

func (s *Server) handleGetSolution(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookupHandle(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, solveResponse{
		ID: e.id, InstanceHash: e.instHash, Cached: true, Report: e.reportJSON,
	})
}

// queryAnswer is the response of one assignment lookup.
type queryAnswer struct {
	Client   *int    `json:"client,omitempty"`
	Facility int     `json:"facility"`
	Distance float64 `json:"distance"`
}

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	e, ok := s.lookupQueryHandle(w, r)
	if !ok {
		return
	}
	j, err := strconv.Atoi(r.URL.Query().Get("client"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad client parameter: %w", err))
		return
	}
	fac, d, ok := e.handle.Client(j)
	if !ok {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: client %d out of range [0, %d)", j, e.handle.NumClients()))
		return
	}
	s.met.queriesTotal.Add(1)
	s.queryDur.Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, queryAnswer{Client: &j, Facility: fac, Distance: d})
}

func parseCoord(v string) ([]float64, error) {
	if v == "" {
		return nil, errors.New("serve: empty coordinate")
	}
	parts := strings.Split(v, ",")
	q := make([]float64, len(parts))
	for i, p := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("serve: bad coordinate %q: %w", p, err)
		}
		// ParseFloat accepts "NaN"/"Inf", but neither is a point in the
		// space — and +Inf distances don't survive JSON encoding.
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("serve: non-finite coordinate %q", p)
		}
		q[i] = x
	}
	return q, nil
}

// finiteCoords rejects bulk-query coordinates the tree cannot answer for
// (see parseCoord).
func finiteCoords(q []float64) bool {
	for _, x := range q {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	e, ok := s.lookupQueryHandle(w, r)
	if !ok {
		return
	}
	q, err := parseCoord(r.URL.Query().Get("x"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fac, d, ok := e.handle.Nearest(q)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Errorf(
			"serve: coordinate queries need a point-backed instance with dim %d (got %d coordinates)",
			e.handle.Dim(), len(q)))
		return
	}
	s.met.queriesTotal.Add(1)
	s.queryDur.Observe(time.Since(start).Seconds())
	writeJSON(w, http.StatusOK, queryAnswer{Facility: fac, Distance: d})
}

// handleQueryStream is the bulk form of assign/nearest: an NDJSON stream of
// QueryLine records in, one answer (or error) line per query out, in order.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookupQueryHandle(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	// Answers stream out while queries are still being read in; without
	// full duplex, HTTP/1 closes the request body at the first flush.
	_ = rc.EnableFullDuplex()
	out := json.NewEncoder(flushWriter{w: w, rc: rc})
	sc := bufio.NewScanner(io.LimitReader(r.Body, s.cfg.maxBody()))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		lineStart := time.Now()
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ql QueryLine
		if err := json.Unmarshal(line, &ql); err != nil {
			_ = out.Encode(errorBody{Error: err.Error()})
			continue
		}
		var ans queryAnswer
		switch {
		case ql.Client != nil:
			fac, d, ok := e.handle.Client(*ql.Client)
			if !ok {
				_ = out.Encode(errorBody{Error: fmt.Sprintf("client %d out of range", *ql.Client)})
				continue
			}
			ans = queryAnswer{Client: ql.Client, Facility: fac, Distance: d}
		case len(ql.X) > 0:
			if !finiteCoords(ql.X) {
				_ = out.Encode(errorBody{Error: "non-finite coordinate"})
				continue
			}
			fac, d, ok := e.handle.Nearest(ql.X)
			if !ok {
				_ = out.Encode(errorBody{Error: "coordinate query unsupported for this solution"})
				continue
			}
			ans = queryAnswer{Facility: fac, Distance: d}
		default:
			_ = out.Encode(errorBody{Error: "query names neither client nor x"})
			continue
		}
		s.met.queriesTotal.Add(1)
		s.queryDur.Observe(time.Since(lineStart).Seconds())
		if err := out.Encode(ans); err != nil {
			return
		}
	}
	if sc.Err() != nil {
		// An over-long line or a body read failure mid-stream: answers may
		// already be on the wire, so abort the connection instead of ending
		// the stream cleanly (which would read as a complete response).
		panic(http.ErrAbortHandler)
	}
}
