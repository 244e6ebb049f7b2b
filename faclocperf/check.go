package main

// Answer checks. Every response is verified against the benchmark's own
// plain-form copy of the input; a response that fails a check is a wrong
// answer, which fails the op and, at the end of the run, the command.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// relTol is the relative tolerance of every recomputed quantity.
const relTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// wrongAnswer marks a response that arrived intact but is incorrect.
type wrongAnswer struct{ msg string }

func (e *wrongAnswer) Error() string { return "wrong answer: " + e.msg }

func wrongf(format string, args ...any) error {
	return &wrongAnswer{msg: fmt.Sprintf(format, args...)}
}

// report is the part of a /solve report the checks read.
type report struct {
	Solver         string  `json:"solver"`
	Cost           float64 `json:"cost"`
	FacilityCost   float64 `json:"facility_cost"`
	ConnectionCost float64 `json:"connection_cost"`
	Open           []int   `json:"open"`
	Clients        int     `json:"clients"`
	WallMS         float64 `json:"wall_ms"`
}

type solveResp struct {
	ID           string          `json:"id"`
	InstanceHash string          `json:"instance_hash"`
	Cached       bool            `json:"cached"`
	Degraded     bool            `json:"degraded"`
	Report       json.RawMessage `json:"report"`
	rep          report
}

// checkSolve decodes a /solve response and recomputes its cost from the
// open set and the instance.
func checkSolve(body []byte, u *ufl, solver string) (*solveResp, error) {
	var r solveResp
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, wrongf("undecodable solve response: %v", err)
	}
	if err := json.Unmarshal(r.Report, &r.rep); err != nil {
		return nil, wrongf("undecodable report: %v", err)
	}
	if r.rep.Solver != solver {
		return nil, wrongf("%s answered by solver %q", solver, r.rep.Solver)
	}
	if r.Degraded {
		return nil, wrongf("%s served degraded on a healthy ring", solver)
	}
	if r.rep.Clients != u.nc {
		return nil, wrongf("%s reports %d clients, instance has %d", solver, r.rep.Clients, u.nc)
	}
	want, ok := u.openCost(r.rep.Open)
	if !ok {
		return nil, wrongf("%s open set %v is empty or out of range", solver, r.rep.Open)
	}
	if !near(r.rep.Cost, want) {
		return nil, wrongf("%s reports cost %.17g, its open set costs %.17g", solver, r.rep.Cost, want)
	}
	return &r, nil
}

// sameSolution reports whether two reports carry bitwise-identical
// solutions: the same open set and the same cost components.
func sameSolution(a, b *report) bool {
	if len(a.Open) != len(b.Open) {
		return false
	}
	for i := range a.Open {
		if a.Open[i] != b.Open[i] {
			return false
		}
	}
	return math.Float64bits(a.FacilityCost) == math.Float64bits(b.FacilityCost) &&
		math.Float64bits(a.ConnectionCost) == math.Float64bits(b.ConnectionCost)
}

// putResp is the /instances response.
type putResp struct {
	Hash    string `json:"hash"`
	NF      int    `json:"nf"`
	NC      int    `json:"nc"`
	Backing string `json:"backing"`
}

func checkPut(body []byte, u *ufl) (string, error) {
	var r putResp
	if err := json.Unmarshal(body, &r); err != nil {
		return "", wrongf("undecodable put response: %v", err)
	}
	if r.NF != u.nf || r.NC != u.nc || r.Backing != u.form() || len(r.Hash) != 64 {
		return "", wrongf("put of a %d×%d %s instance answered %+v", u.nf, u.nc, u.form(), r)
	}
	return r.Hash, nil
}

// answer is one assignment or nearest-facility answer.
type answer struct {
	Client   *int    `json:"client"`
	Facility int     `json:"facility"`
	Distance float64 `json:"distance"`
	Error    string  `json:"error"`
}

// isOpen reports whether facility i is in the open set.
func isOpen(open []int, i int) bool {
	for _, o := range open {
		if o == i {
			return true
		}
	}
	return false
}

// checkAssign brute-forces client j's nearest open facility.
func checkAssign(a *answer, u *ufl, open []int, j int) error {
	if a.Error != "" {
		return wrongf("assign client %d: %s", j, a.Error)
	}
	if a.Client == nil || *a.Client != j || !isOpen(open, a.Facility) {
		return wrongf("assign client %d answered facility %d, not an open facility for it", j, a.Facility)
	}
	best := math.Inf(1)
	for _, i := range open {
		best = math.Min(best, u.d(i, j))
	}
	if !near(a.Distance, u.d(a.Facility, j)) || !near(a.Distance, best) {
		return wrongf("assign client %d: distance %.17g, nearest open is %.17g", j, a.Distance, best)
	}
	return nil
}

// checkNearest brute-forces the open facility nearest to point (x, y).
func checkNearest(a *answer, u *ufl, open []int, x, y float64) error {
	if a.Error != "" {
		return wrongf("nearest (%g,%g): %s", x, y, a.Error)
	}
	if !isOpen(open, a.Facility) {
		return wrongf("nearest (%g,%g) answered closed facility %d", x, y, a.Facility)
	}
	dist := func(i int) float64 {
		dx, dy := u.coords[2*i]-x, u.coords[2*i+1]-y
		return math.Sqrt(dx*dx + dy*dy)
	}
	best := math.Inf(1)
	for _, i := range open {
		best = math.Min(best, dist(i))
	}
	if !near(a.Distance, dist(a.Facility)) || !near(a.Distance, best) {
		return wrongf("nearest (%g,%g): distance %.17g, nearest open is %.17g", x, y, a.Distance, best)
	}
	return nil
}

// query is one line of a bulk query: a client index or a coordinate.
type query struct {
	client int // -1 for a coordinate query
	x, y   float64
}

func (q query) line() []byte {
	if q.client >= 0 {
		return fmt.Appendf(nil, "{\"client\":%d}\n", q.client)
	}
	return fmt.Appendf(nil, "{\"x\":[%s,%s]}\n", fmtFloat(q.x), fmtFloat(q.y))
}

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// errAborted marks a response stream cut off mid-body.
type errAborted struct{ err error }

func (e *errAborted) Error() string { return "stream aborted: " + e.err.Error() }

// checkQueryStream reads a bulk-query response: one answer per line sent,
// every sampled answer brute-forced. A read error mid-stream is an aborted
// stream; a stream that ends cleanly with lines missing is a wrong answer.
func checkQueryStream(body []byte, readErr error, u *ufl, open []int, qs []query, sampleEvery int) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	n := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if n >= len(qs) {
			return wrongf("bulk query of %d lines answered more lines", len(qs))
		}
		if n%sampleEvery == 0 {
			var a answer
			if err := json.Unmarshal(line, &a); err != nil {
				return wrongf("bulk answer %d undecodable: %v", n, err)
			}
			q := qs[n]
			var err error
			if q.client >= 0 {
				err = checkAssign(&a, u, open, q.client)
			} else {
				err = checkNearest(&a, u, open, q.x, q.y)
			}
			if err != nil {
				return err
			}
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return wrongf("bulk answer %d unreadable: %v", n, err)
	}
	if readErr != nil {
		return &errAborted{err: readErr}
	}
	if n != len(qs) {
		return wrongf("bulk query of %d lines answered %d lines", len(qs), n)
	}
	return nil
}

// streamReport is the part of a /solve-stream report the checks read.
type streamReport struct {
	Solver      string    `json:"solver"`
	N           int       `json:"n"`
	K           int       `json:"k"`
	Dim         int       `json:"dim"`
	Centers     []float64 `json:"centers"`
	Estimate    float64   `json:"estimate"`
	Chunks      int       `json:"chunks"`
	Rounds      int       `json:"rounds"`
	MergeBytes  int64     `json:"merge_bytes"`
	PeakBytes   int64     `json:"peak_bytes"`
	BudgetBytes int64     `json:"budget_bytes"`
}

func checkStream(body []byte, ks *kstream, budget int64) (*streamReport, error) {
	var r streamReport
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, wrongf("undecodable stream report: %v", err)
	}
	switch {
	case r.N != ks.n || r.Dim != 2:
		return nil, wrongf("stream of %d 2-d points reported n=%d dim=%d", ks.n, r.N, r.Dim)
	case len(r.Centers) != 2*ks.k:
		return nil, wrongf("k=%d stream returned %d center coordinates", ks.k, len(r.Centers))
	case !(r.Estimate > 0) || math.IsInf(r.Estimate, 0):
		return nil, wrongf("stream estimate %g is not a positive finite cost", r.Estimate)
	case r.PeakBytes <= 0 || r.PeakBytes > budget:
		return nil, wrongf("stream peak %d B outside the %d B budget", r.PeakBytes, budget)
	}
	return &r, nil
}
