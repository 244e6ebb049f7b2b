package metric

import (
	"errors"
	"math"
)

// Space is a finite metric space over points indexed 0..N()-1.
type Space interface {
	// N is the number of points.
	N() int
	// Dist returns the distance between points i and j; it must be
	// symmetric, non-negative, zero on the diagonal, and satisfy the
	// triangle inequality.
	Dist(i, j int) float64
}

// Subset views the points Idx of a space as a space of its own: point i of
// the view is point Idx[i] of Space. No distances are copied.
type Subset[I ~int | ~int32] struct {
	Space Space
	Idx   []I
}

// N returns the number of viewed points.
func (s *Subset[I]) N() int { return len(s.Idx) }

// Dist returns the distance between viewed points i and j.
func (s *Subset[I]) Dist(i, j int) float64 { return s.Space.Dist(int(s.Idx[i]), int(s.Idx[j])) }

// Euclidean is a metric space of points in R^dim under the L2 norm.
type Euclidean struct {
	Dim    int
	Coords []float64 // len n*Dim, point i at Coords[i*Dim : (i+1)*Dim]
}

// N returns the number of points.
func (e *Euclidean) N() int { return len(e.Coords) / e.Dim }

// Point returns the coordinate slice of point i (aliases storage).
func (e *Euclidean) Point(i int) []float64 {
	return e.Coords[i*e.Dim : (i+1)*e.Dim]
}

// Dist returns the L2 distance between points i and j.
func (e *Euclidean) Dist(i, j int) float64 {
	pi, pj := e.Point(i), e.Point(j)
	s := 0.0
	for k := range pi {
		d := pi[k] - pj[k]
		s += d * d
	}
	return math.Sqrt(s)
}

// ErrNotMetric reports an invalid explicit matrix.
var ErrNotMetric = errors.New("metric: matrix is not a metric")
