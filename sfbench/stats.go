package main

import (
	"math"
	"sort"
)

// tailLevels are the percentiles a timing may report as its tail, highest
// first. A level is reported only when at least minBeyond samples lie above
// it, so a tail figure never rests on a handful of outliers.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. It returns NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := rank(n, p)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return sorted[k-1]
}

// beyond is the number of samples strictly above the nearest-rank p-th
// percentile position of n samples.
func beyond(n int, p float64) int { return n - rank(n, p) }

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples. The tolerance keeps binary rounding of p/100*n (99.9% of 10,000
// is 9990.000000000002) from moving the rank up by one.
func rank(n int, p float64) int { return int(math.Ceil(p/100*float64(n) - 1e-9)) }

// tailLevel returns the highest of tailLevels with at least minBeyond of n
// samples beyond it, or 0 when even the median has too few.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// median is the middle sample (mean of the middle two for even counts).
func median(values []float64) float64 {
	s := sorted(values)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing values into four groups,
// computed exactly as Python's statistics.quantiles(values, n=4) does with
// its default 'exclusive' method, so spreads printed here match the ones a
// Python reader computes from the same values. It needs at least 2 values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sorted(values)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure BENCHMARK.json bounds are set against.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// sample is a growable set of observations of one quantity.
type sample []float64

// summary reports a sample's median and its tail: the p-th percentile
// (p from tailLevel) together with the sample count.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail"`
	TailAt float64 `json:"tail_at"`
	Mean   float64 `json:"mean"`
}

func (s sample) summary() summary {
	o := sorted(s)
	sum := 0.0
	for _, v := range o {
		sum += v
	}
	out := summary{N: len(o), P50: percentile(o, 50), TailAt: tailLevel(len(o))}
	if out.TailAt > 0 {
		out.Tail = percentile(o, out.TailAt)
	}
	if len(o) > 0 {
		out.Mean = sum / float64(len(o))
	}
	return out
}

// at returns the nearest-rank p-th percentile of the sample.
func (s sample) at(p float64) float64 { return percentile(sorted(s), p) }

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// geomean is the geometric mean of positive values.
func (s sample) geomean() float64 {
	if len(s) == 0 {
		return 0
	}
	l := 0.0
	for _, v := range s {
		l += math.Log(v)
	}
	return math.Exp(l / float64(len(s)))
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}
