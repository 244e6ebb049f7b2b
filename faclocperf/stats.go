package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the definition the steadiness report uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return at(1), at(2), at(3)
}

// vmHWM returns the process's peak resident set in MiB.
func vmHWM() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// metricsPage is a parsed Prometheus text page: sample name (with labels)
// to value.
type metricsPage map[string]float64

func parsePage(b []byte) metricsPage {
	m := metricsPage{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] += v
	}
	return m
}

// sum adds every sample whose name (labels stripped) equals name.
func (m metricsPage) sum(name string) float64 {
	t := 0.0
	for k, v := range m {
		base := k
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base = k[:i]
		}
		if base == name {
			t += v
		}
	}
	return t
}

// histogram returns a histogram family's cumulative bucket counts by upper
// bound.
func (m metricsPage) histogram(name string) map[float64]float64 {
	out := map[float64]float64{}
	prefix := name + `_bucket{le="`
	for k, v := range m {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			le := strings.TrimSuffix(rest, `"}`)
			ub := math.Inf(1)
			if le != "+Inf" {
				var err error
				if ub, err = strconv.ParseFloat(le, 64); err != nil {
					continue
				}
			}
			out[ub] += v
		}
	}
	return out
}

// histQuantile estimates the q-quantile of the observations between two
// scrapes from the cumulative bucket deltas, interpolating linearly inside
// the bucket that holds it (NaN when nothing was observed).
func histQuantile(before, after map[float64]float64, q float64) (float64, int) {
	var bounds []float64
	for ub := range after {
		bounds = append(bounds, ub)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return math.NaN(), 0
	}
	total := after[bounds[len(bounds)-1]] - before[bounds[len(bounds)-1]]
	if total <= 0 {
		return math.NaN(), 0
	}
	rank := q * total
	prevUB, prevCount := 0.0, 0.0
	for _, ub := range bounds {
		c := after[ub] - before[ub]
		if c >= rank {
			if math.IsInf(ub, 1) || c == prevCount {
				return prevUB, int(total)
			}
			return prevUB + (ub-prevUB)*(rank-prevCount)/(c-prevCount), int(total)
		}
		prevUB, prevCount = ub, c
	}
	return prevUB, int(total)
}
