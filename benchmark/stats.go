package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// samples in seconds; it sorts ds in place. Zero samples give 0.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(math.Ceil(q*float64(len(ds)))) - 1
	if idx < 0 {
		idx = 0
	}
	return ds[idx].Seconds()
}

// median is the middle of vs (the mean of the two middles for an even
// count); it sorts vs in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) computes them (the "exclusive" method),
// so the spreads this tool prints match the ones computed with Python.
// It sorts vs in place.
func quartiles(vs []float64) (q1, q3 float64) {
	sort.Float64s(vs)
	ld := len(vs)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return vs[0], vs[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (vs[j-1]*float64(n-delta) + vs[j]*float64(delta)) / n
	}
	return at(1), at(3)
}
