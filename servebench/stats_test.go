package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {3, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var d dist
	for i := 100; i >= 1; i-- {
		d.add(float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0, 1}, {75, 75}} {
		if got := d.q(c.p); got != c.want {
			t.Errorf("q(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := tailOf(&d, 99); got != 90 {
		t.Errorf("tailOf(100 samples, 99) = %g, want the p90 value 90 (ten samples beyond)", got)
	}
}

func TestFasterHalfPoolsTheFastestCycles(t *testing.T) {
	// Seven cycles; cycle c holds ten samples of value c. Ranked by p50,
	// the faster half (rounded up) are cycles 0..3.
	var cycles []*dist
	var p50s []float64
	for _, c := range []int{6, 0, 3, 5, 1, 2, 4} {
		d := &dist{}
		for i := 0; i < 10; i++ {
			d.add(float64(c))
		}
		cycles = append(cycles, d)
		p50s = append(p50s, d.p50())
	}
	got := fasterHalf(cycles, p50s)
	if got.n() != 40 {
		t.Fatalf("faster half holds %d samples, want 40", got.n())
	}
	if lo, hi := got.q(0), got.q(100); lo != 0 || hi != 3 {
		t.Errorf("faster half spans %g..%g, want cycles 0..3", lo, hi)
	}
}

func TestServiceMetricsSkipAStalledCycle(t *testing.T) {
	// Five cycles; cycle 2 suffers a stall: its latencies are ten times
	// the others' and its closed loop completes a quarter of the
	// operations. The better half of the cycles leaves it out.
	var lat, peak [][]sample
	for w := 0; w < 5; w++ {
		var l, p []sample
		for i := 0; i < 100; i++ {
			due := time.Duration(i) * 50 * time.Microsecond
			d := time.Millisecond
			if w == 2 {
				d = 10 * time.Millisecond
			}
			l = append(l, sample{kind: "x", n: 1, due: due, sent: due, done: due + d})
			if w != 2 || i%4 == 0 {
				p = append(p, sample{kind: "x", n: 2, due: due, sent: due, done: due + d})
			}
		}
		lat, peak = append(lat, l), append(peak, p)
	}
	o := &outcome{metrics: map[string]float64{}}
	serviceMetrics(o, [2]float64{90, 90}, lat, peak, 10*time.Millisecond, []string{"x"}, []string{"x"})
	if got := o.metrics["a_p50_ms"]; got != 1 {
		t.Errorf("a_p50_ms = %g, want 1 (the stalled cycle is not in the faster half)", got)
	}
	if got := o.metrics["a_tail_ms"]; got != 1 {
		t.Errorf("a_tail_ms = %g, want 1 (the stalled cycle is not in the faster half)", got)
	}
	if got := o.metrics["peak_ops_s"]; got != 20000 {
		t.Errorf("peak_ops_s = %g, want 200 ops per 10ms cycle = 20000/s (the stalled cycle is not in the better half)", got)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	for _, w := range b.Workloads {
		if _, ok := classes[w.Name]; !ok {
			t.Errorf("workload %s has no request classes", w.Name)
		}
	}
	if len(b.Workloads) != len(classes) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(classes))
	}
}
