package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p95 needs 200 samples, a p50 needs 20.
const minBeyond = 10

// quantile is the nearest-rank q-quantile of samples. It refuses (with an
// error naming the sample count) when fewer than minBeyond samples lie
// beyond the rank, so a percentile never prints from too few samples.
func quantile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			100*q, minBeyond, max(n-rank, 0), n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the middle value (mean of the middle two for even counts) of
// a set of per-round or per-run figures; it has no sample floor because
// it reports the centre of a few repeated measurements, not a tail.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
