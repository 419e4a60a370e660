package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail metric may report, highest
// first. A timing's tail is the highest of these with at least minBeyond
// samples above it, so a short run reports p90 instead of a p99 that
// rests on one or two samples.
var tailLadder = []float64{99, 95, 90, 75, 50}

const minBeyond = 10

// tailPercentile returns the highest ladder percentile that leaves at
// least minBeyond of n samples beyond it (50 when even that is not met).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// rank is the 1-based nearest-rank position of percentile p among n
// samples, clamped to [1, n].
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// quantile returns the nearest-rank p-th percentile of sorted (p in
// [0,100]); 0 for an empty slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// dist is a sample of one timing or count, kept whole so any percentile
// can be read from it.
type dist struct {
	v      []float64
	sorted bool
}

func (d *dist) add(x float64) { d.v = append(d.v, x); d.sorted = false }

func (d *dist) n() int { return len(d.v) }

func (d *dist) q(p float64) float64 {
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
	return quantile(d.v, p)
}

func (d *dist) p50() float64 { return d.q(50) }

// tail reports the dist's tail percentile value and which percentile it is.
func (d *dist) tail() (float64, float64) {
	p := tailPercentile(d.n())
	return d.q(p), p
}

func (d *dist) mean() float64 {
	if len(d.v) == 0 {
		return 0
	}
	var s float64
	for _, x := range d.v {
		s += x
	}
	return s / float64(len(d.v))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c) == 0 {
		return 0
	}
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
