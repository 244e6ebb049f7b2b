package main

// Input generation. The benchmark owns its generator (splitmix64 over the
// workload seed, the op index and a purpose tag), so the inputs a workload
// sends stay fixed however the program's own generators change, and the
// checker holds every input in plain form to verify answers against.

import (
	"math"
	"strconv"
)

// splitmix64 is the benchmark's only source of randomness.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *splitmix64) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// normal returns a standard normal deviate (Box–Muller).
func (r *splitmix64) normal() float64 {
	u := r.float()
	for u == 0 {
		u = r.float()
	}
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.float())
}

// rngFor derives an independent stream for one (seed, op, purpose) triple.
func rngFor(seed int64, op int, purpose uint64) *splitmix64 {
	r := &splitmix64{s: uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(op)*0xd1b54a32d192ed03 ^ purpose*0x8cb92ba72f3d8dd7}
	r.next()
	return r
}

// Purpose tags keep the streams of one op apart.
const (
	tagUFL uint64 = iota + 1
	tagLP
	tagStream
	tagQuery
	tagSchedule
	tagWarm
	tagWarmUp
	tagWrite
)

// side is the square the points live in.
const side = 1000.0

// ufl is one generated facility-location instance in plain form: nf
// facilities then nc clients as 2-d points, unit client weights.
type ufl struct {
	nf, nc int
	dense  bool      // sent as a distance matrix rather than as points
	coords []float64 // (nf+nc)·2, facilities first
	cost   []float64 // nf opening costs
	dist   []float64 // nf×nc row-major, filled for dense instances
	lower  float64   // min_i f_i + Σ_j min_i d_ij
	body   []byte    // the wire form sent to the server
}

// genUFL generates an instance whose clients sit in Gaussian blobs around
// random centres, the shape the daemon's point-form clients send.
func genUFL(r *splitmix64, nf, nc int, dense bool, costLo, costHi float64) *ufl {
	u := &ufl{nf: nf, nc: nc, dense: dense}
	u.coords = make([]float64, 2*(nf+nc))
	for i := 0; i < nf; i++ {
		u.coords[2*i] = side * r.float()
		u.coords[2*i+1] = side * r.float()
	}
	const blobs = 12
	var centres [2 * blobs]float64
	for b := range centres {
		centres[b] = side * (0.1 + 0.8*r.float())
	}
	for j := 0; j < nc; j++ {
		b := int(r.next() % blobs)
		p := 2 * (nf + j)
		u.coords[p] = centres[2*b] + 60*r.normal()
		u.coords[p+1] = centres[2*b+1] + 60*r.normal()
	}
	u.cost = make([]float64, nf)
	minCost := math.Inf(1)
	for i := range u.cost {
		u.cost[i] = costLo + (costHi-costLo)*r.float()
		minCost = math.Min(minCost, u.cost[i])
	}
	if dense {
		u.dist = make([]float64, nf*nc)
		for i := 0; i < nf; i++ {
			for j := 0; j < nc; j++ {
				u.dist[i*nc+j] = u.pointDist(i, j)
			}
		}
	}
	u.lower = minCost
	for j := 0; j < nc; j++ {
		best := math.Inf(1)
		for i := 0; i < nf; i++ {
			best = math.Min(best, u.d(i, j))
		}
		u.lower += best
	}
	u.body = u.encode()
	return u
}

func (u *ufl) pointDist(i, j int) float64 {
	p, q := 2*i, 2*(u.nf+j)
	dx, dy := u.coords[p]-u.coords[q], u.coords[p+1]-u.coords[q+1]
	return math.Sqrt(dx*dx + dy*dy)
}

// d is the distance the server sees: the sent matrix entry for dense
// instances, the Euclidean distance for point-form ones.
func (u *ufl) d(i, j int) float64 {
	if u.dense {
		return u.dist[i*u.nc+j]
	}
	return u.pointDist(i, j)
}

// form names the wire form, for failure breakdowns.
func (u *ufl) form() string {
	if u.dense {
		return "dense"
	}
	return "points"
}

// encode renders the instance in the daemon's JSON wire form. Floats use
// the shortest round-trip representation, so the server decodes exactly
// the values the checker holds.
func (u *ufl) encode() []byte {
	b := make([]byte, 0, 64+24*(len(u.coords)+len(u.dist)+u.nf))
	b = append(b, `{"nf":`...)
	b = strconv.AppendInt(b, int64(u.nf), 10)
	b = append(b, `,"nc":`...)
	b = strconv.AppendInt(b, int64(u.nc), 10)
	b = append(b, `,"facility_costs":`...)
	b = appendFloats(b, u.cost)
	if u.dense {
		b = append(b, `,"distance":[`...)
		for i := 0; i < u.nf; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloats(b, u.dist[i*u.nc:(i+1)*u.nc])
		}
		b = append(b, ']')
	} else {
		b = append(b, `,"points":{"dim":2,"coords":`...)
		b = appendFloats(b, u.coords)
		b = append(b, '}')
	}
	return append(b, '}', '\n')
}

func appendFloats(b []byte, xs []float64) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, ']')
}

// openCost recomputes a solution's cost from its open set: opening costs
// plus every client's distance to its nearest open facility.
func (u *ufl) openCost(open []int) (float64, bool) {
	if len(open) == 0 {
		return 0, false
	}
	total := 0.0
	for _, i := range open {
		if i < 0 || i >= u.nf {
			return 0, false
		}
		total += u.cost[i]
	}
	for j := 0; j < u.nc; j++ {
		best := math.Inf(1)
		for _, i := range open {
			best = math.Min(best, u.d(i, j))
		}
		total += best
	}
	return total, true
}

// kstream is a generated point-form k-median stream for /solve-stream.
type kstream struct {
	n, k int
	body []byte
}

// genStream generates n 2-d points in Gaussian blobs as one k-median
// instance in the streaming wire form (header fields before the points).
func genStream(r *splitmix64, n, k int) *kstream {
	const blobs = 16
	var centres [2 * blobs]float64
	for b := range centres {
		centres[b] = side * r.float()
	}
	coords := make([]float64, 2*n)
	for p := 0; p < n; p++ {
		b := int(r.next() % blobs)
		coords[2*p] = centres[2*b] + 25*r.normal()
		coords[2*p+1] = centres[2*b+1] + 25*r.normal()
	}
	b := make([]byte, 0, 20*len(coords))
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, `,"points":{"dim":2,"coords":`...)
	b = appendFloats(b, coords)
	b = append(b, '}', '}', '\n')
	return &kstream{n: n, k: k, body: b}
}
