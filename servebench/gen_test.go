package main

import (
	"bytes"
	"fmt"
	"testing"
)

func smallPoints(n int) ([][]float64, float64) {
	pts, gamma, err := homeData(n, dataSeed)
	if err != nil {
		panic(err)
	}
	return pts, gamma
}

func bodies(n int, next func() *op) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		o := next()
		out[i] = append([]byte(o.method+" "+o.path+" "), o.body...)
	}
	return out
}

func sameBodies(a, b [][]byte) bool {
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestSeedDeterminism(t *testing.T) {
	pts, gamma := smallPoints(400)
	st := &staticStack{pts: pts, gamma: gamma}
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	cst := &clusterStack{pts: pts, gamma: gamma, seedIDs: ids}
	streams := map[string]func(seed int64) func() *op{
		"kde-point":  func(seed int64) func() *op { return newStaticWork(st, seed, false).point },
		"tile":       func(seed int64) func() *op { return newStaticWork(st, seed, true).tileOp },
		"score":      func(seed int64) func() *op { return newStaticWork(st, seed, true).scoreOp },
		"cluster-rw": func(seed int64) func() *op { return newClusterWork(cst, seed).next },
	}
	for name, mk := range streams {
		a, b, c := bodies(200, mk(3)), bodies(200, mk(3)), bodies(200, mk(4))
		if !sameBodies(a, b) {
			t.Errorf("%s: the same seed must give the identical request sequence", name)
		}
		if sameBodies(a, c) {
			t.Errorf("%s: different seeds gave the same requests", name)
		}
	}
}

// TestNoQueryRepeats guards against traffic a result cache could serve:
// every query vector in a stream is fresh.
func TestNoQueryRepeats(t *testing.T) {
	pts, gamma := smallPoints(400)
	st := &staticStack{pts: pts, gamma: gamma}
	w := newStaticWork(st, 9, false)
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		k := hashQuery(w.point().q)
		if seen[k] {
			t.Fatalf("query %d repeats an earlier one", i)
		}
		seen[k] = true
	}
	wb := newStaticWork(st, 9, true)
	for i := 0; i < 40; i++ {
		for _, o := range []*op{wb.tileOp(), wb.scoreOp()} {
			for _, q := range o.batch {
				k := hashQuery(q)
				if seen[k] {
					t.Fatalf("batch query repeats an earlier one")
				}
				seen[k] = true
			}
		}
	}
}

func TestStaticChecksMatchTheOracle(t *testing.T) {
	pts, gamma := smallPoints(300)
	st := &staticStack{pts: pts, gamma: gamma}
	w := newStaticWork(st, 2, false)
	if len(w.ptExact) != pointChecks {
		t.Fatalf("%d checked kde-point requests, want %d", len(w.ptExact), pointChecks)
	}
	// The twin generator must have produced exactly the stream's queries:
	// the oracle value stored for request i is the exact F of request i.
	for i := 0; i < 2*checkEvery; i++ {
		o := w.point()
		exact, ok := w.ptExact[i]
		if (i%checkEvery == 0) != ok || (o.check != nil) != ok {
			t.Fatalf("request %d: checked=%v, oracle=%v", i, o.check != nil, ok)
		}
		if ok {
			if want := exactF(pts, gamma, o.q); want != exact {
				t.Fatalf("request %d: oracle %g, exact F of the sent query %g", i, exact, want)
			}
			var body []byte
			if o.kind == "approx" {
				body = []byte(fmt.Sprintf(`{"value":%v}`, exact*1.05))
			} else {
				body = []byte(fmt.Sprintf(`{"over":%v}`, exact > w.tau))
			}
			if err := o.check(body); err != nil {
				t.Fatalf("request %d: a correct answer failed its check: %v", i, err)
			}
			if o.kind == "approx" {
				if err := o.check([]byte(fmt.Sprintf(`{"value":%v}`, exact*1.2))); err == nil {
					t.Fatalf("request %d: an answer 20%% off passed an ε=%g check", i, eps)
				}
			}
		}
	}
}
