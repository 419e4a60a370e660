package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"karl/internal/dataset"
)

// Inputs are the paper's "home" stand-in (d=10, Type I weights, Scott's
// rule γ from the paper's raw n). The point set is the same in every run
// (dataSeed): the mixture's random cluster scales move engine cost per
// query by tens of percent from one point set to the next, which would
// swamp run-to-run comparisons. The run's seed varies the traffic — every
// query, arrival time, batch window, inserted point and deleted id. The
// program under test only ever sees these generated points and requests.
const (
	homeName = "home"
	dataSeed = 1
	jitter   = 0.02 // per-dimension query jitter around a data point
	eps      = 0.1  // relative error budget of every approximate request
)

// homeData generates n home points.
func homeData(n int, seed int64) (pts [][]float64, gamma float64, err error) {
	spec, err := dataset.ByName(homeName)
	if err != nil {
		return nil, 0, err
	}
	ds, err := dataset.GenerateSized(spec, n, 1, seed)
	if err != nil {
		return nil, 0, fmt.Errorf("generating %d home points: %w", n, err)
	}
	pts = make([][]float64, ds.Points.Rows)
	for i := range pts {
		pts[i] = ds.Points.Row(i)
	}
	return pts, ds.Gamma, nil
}

// queryGen draws fresh queries: a random data point plus Gaussian jitter,
// so no query repeats and a result cache would never hit.
type queryGen struct {
	rng *rand.Rand
	pts [][]float64
}

func newQueryGen(pts [][]float64, seed int64) *queryGen {
	return &queryGen{rng: rand.New(rand.NewSource(seed)), pts: pts}
}

func (g *queryGen) near(p []float64, sd float64) []float64 {
	q := make([]float64, len(p))
	for j := range q {
		q[j] = p[j] + g.rng.NormFloat64()*sd
	}
	return q
}

func (g *queryGen) query() []float64 {
	return g.near(g.pts[g.rng.Intn(len(g.pts))], jitter)
}

// tile is a side×side grid over dimensions 0 and 1 in a window of the
// given half-width around a jittered data point; the other dimensions
// stay at the point's values. Neighbouring grid queries share most of
// their kernel mass, which is the work a dual-tree traversal shares.
func (g *queryGen) tile(side int, half float64) [][]float64 {
	c := g.query()
	out := make([][]float64, 0, side*side)
	step := 2 * half / float64(side-1)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			q := append([]float64(nil), c...)
			q[0] = c[0] - half + float64(i)*step
			q[1] = c[1] - half + float64(j)*step
			out = append(out, q)
		}
	}
	return out
}

// scattered is a batch of independent fresh queries: no shared work.
func (g *queryGen) scattered(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = g.query()
	}
	return out
}

// seedFor derives a stream seed from the run seed, so each stream (warm-up,
// measured traffic, arrivals, checks) is independent but reproducible.
func seedFor(seed int64, stream string) int64 {
	h := int64(1469598103934665603)
	for _, c := range stream {
		h = (h ^ int64(c)) * 1099511628211
	}
	return seed*1000003 ^ h
}

// exactF is the oracle: F(q) = Σ exp(−γ‖q−p‖²) by direct summation over
// the benchmark's own copy of the points (unit weights), never through
// the engine.
func exactF(pts [][]float64, gamma float64, q []float64) float64 {
	var s float64
	for _, p := range pts {
		var d2 float64
		for j, x := range p {
			d := q[j] - x
			d2 += d * d
		}
		s += math.Exp(-gamma * d2)
	}
	return s
}

// exactAll evaluates exactF for many queries on a few goroutines.
func exactAll(pts [][]float64, gamma float64, qs [][]float64) []float64 {
	out := make([]float64, len(qs))
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(qs); i += workers {
				out[i] = exactF(pts, gamma, qs[i])
			}
		}(w)
	}
	wg.Wait()
	return out
}

// checkApprox reports whether v is within the relative budget of the
// exact value (with room for floating-point summation order).
func checkApprox(v, exact float64) error {
	if math.Abs(v-exact) > eps*exact*(1+1e-9)+1e-12 {
		return fmt.Errorf("approximate %.9g outside ε=%g of exact %.9g", v, eps, exact)
	}
	return nil
}

// tieMargin is the relative distance from τ within which a threshold
// verdict is not checked: the engine and the oracle sum in different
// orders, so either side of an exact tie is correct.
const tieMargin = 1e-9

func checkThreshold(over bool, exact, tau float64) error {
	if math.Abs(exact-tau) <= tieMargin*tau {
		return nil
	}
	if over != (exact > tau) {
		return fmt.Errorf("threshold verdict %v wrong: exact %.9g vs τ %.9g", over, exact, tau)
	}
	return nil
}
