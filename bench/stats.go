package main

import (
	"math"
	"sort"
	"time"
)

// percentile reads the p-th percentile (0–100) of values by linear
// interpolation between order statistics; 0 for no values.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 50) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// highestSupportedPercentile is the highest of p50/p90/p99/p99.9 that
// still has at least ten samples beyond it — a tail read from fewer is
// one outlier's value, not a property of the system.
func highestSupportedPercentile(n int) float64 {
	best := 50.0
	for _, c := range []struct {
		p    float64
		need int // ten samples beyond the percentile
	}{{90, 100}, {99, 1000}, {99.9, 10000}} {
		if n >= c.need {
			best = c.p
		}
	}
	return best
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the acceptance procedure's
// definition); it needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	at := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound is judged against.
func spread(values []float64) float64 {
	m := median(values)
	if len(values) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
