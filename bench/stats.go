package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the linearly interpolated q-quantile of v (0 for an
// empty slice, so that a stage that produced nothing is visible as a
// zero metric and fails the never-zero rule loudly).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// beyond is the number of samples above the q-quantile of n: the
// choosing-metrics guide wants ten before a percentile means anything.
func beyond(n int, q float64) int { return int(math.Round(float64(n) * (1 - q))) }

// iqr is the distance between the first and third quartile, by the
// exclusive method of Python's statistics.quantiles, which the driver
// uses for the spreads it holds against a bound.
func iqr(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := sorted(v)
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return at(0.75) - at(0.25)
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func ms(seconds float64) float64 { return seconds * 1e3 }
