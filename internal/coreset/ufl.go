package coreset

import (
	"context"

	"repro/internal/metric"
	"repro/internal/par"
)

// facPerClient is the number of nearest facility candidates PruneFacilities
// keeps per client.
const facPerClient = 8

// PruneFacilities selects the facility candidates a reduced UFL instance
// keeps: the union over clients of their facPerClient nearest facilities,
// plus the globally cheapest-to-open facility as a feasibility anchor.
// Facilities fac and clients cli are points of sp and cost holds the opening
// costs; the result lists ascending positions into fac. O(|cli|·|fac|)
// distance evaluations and O(|cli|) storage — never the |fac|×|cli| block —
// deterministic and independent of the worker count.
func PruneFacilities(ctx context.Context, c *par.Ctx, sp metric.Space, fac []int, cost []float64, cli []int) ([]int, error) {
	if err := par.CtxErr(ctx); err != nil {
		return nil, err
	}
	nf := len(fac)
	l := min(facPerClient, nf)
	nearest := par.NewDense[int32](len(cli), l)
	c.ForRows(len(cli), nf, func(lo, hi int) {
		bestD := make([]float64, 0, l)
		for r := lo; r < hi; r++ {
			bestD = bestD[:0]
			row := nearest.Row(r)
			for i, f := range fac {
				d := sp.Dist(f, cli[r])
				// Insertion into the sorted top-l (ties toward the smaller
				// index via strict comparison); l is small.
				pos := len(bestD)
				for pos > 0 && bestD[pos-1] > d {
					pos--
				}
				if pos >= l {
					continue
				}
				if len(bestD) < l {
					bestD = append(bestD, 0)
				}
				copy(bestD[pos+1:], bestD[pos:])
				copy(row[pos+1:], row[pos:])
				bestD[pos] = d
				row[pos] = int32(i)
			}
		}
	})
	c.Charge(int64(len(cli))*int64(nf), 1)

	// Every row is full: l ≤ nf and each client scans every facility.
	keep := make([]bool, nf)
	keep[par.ArgMin(c, nf, func(i int) float64 { return cost[i] }).Index] = true
	for r := range cli {
		for _, i := range nearest.Row(r) {
			keep[i] = true
		}
	}
	return par.PackIndex(c, nf, func(i int) bool { return keep[i] }), nil
}
