// Command servebench is the repository's serving benchmark. It hosts the
// real HTTP layers in one process on 127.0.0.1 listeners — internal/server
// over karl.Engine and karl.DynamicEngine, and internal/cluster's writable
// coordinator over replicated shards — drives one named workload from a
// single load generator with at most two connections, checks the answers
// against a direct-summation oracle, and prints the metrics named in
// BENCHMARK.json. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing installed; with -trace 1 a separate traced run reports the
// per-layer ones. Run it from the repository root through run.sh, or:
//
//	cd servebench && go run . -workload kde-point -seed 1 -seconds 30 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// setupReps is how many times a run sets its stack up; setup_s is the
// median.
const setupReps = 5

type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
}

type metricDef struct{ name, unit string }

// endToEnd metrics are reported by every workload with -trace 0. Classes
// a and b are the workload's two request classes (see classes).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_ops_s", "ops/s"},
	{"heap_mb", "MB"},
	{"a_p50_ms", "ms"},
	{"a_tail_ms", "ms"},
	{"b_p50_ms", "ms"},
	{"b_tail_ms", "ms"},
}

// classes names each workload's request classes a and b.
var classes = map[string][2]string{
	"kde-point":  {"approximate (eKAQ)", "threshold (TKAQ)"},
	"kde-batch":  {"tile batch", "score batch"},
	"cluster-rw": {"reads (approximate and threshold)", "writes (insert and delete)"},
}

// tailTargets is each workload's tail percentile per class, chosen so the
// faster half of a run's cycles holds well over ten samples beyond it. It
// is fixed per workload, so a faster program reports the same percentile,
// not a higher one; a pool too small for it falls back (tailOf). Writes
// in cluster-rw read p75: at p90 their tail sits on the knee between
// plain inserts and those queued behind a read, and moved by half from
// run to run.
var tailTargets = map[string][2]float64{
	"kde-point":  {95, 95},
	"kde-batch":  {75, 75},
	"cluster-rw": {95, 75},
}

// cycleCount is how many cycles a run is cut into. A cycle of kde-point
// or cluster-rw is an open-loop segment and then a closed-loop one (see
// cycled); a cycle of kde-batch is one closed-loop segment. The host's
// speed drifts by a quarter either way over a few seconds, so each phase
// is spread across the whole run, and the metrics read its better half
// (serviceMetrics).
var cycleCount = map[string]int{"kde-point": 10, "kde-batch": 10, "cluster-rw": 5}

// openShare is the part of each cycle spent in the open loop; the rest
// measures closed-loop throughput.
const openShare = 0.7

// cycleSplit returns the open- and closed-loop length of one cycle of a
// run of the given seconds.
func cycleSplit(seconds float64, n int) (open, closed time.Duration) {
	cycle := time.Duration(seconds / float64(n) * float64(time.Second))
	open = time.Duration(float64(cycle) * openShare)
	return open, cycle - open
}

// fasterHalf pools the samples of the half of the cycles (rounded up)
// with the lowest p50s. A slow spell of the host shifts a whole cycle's
// latencies and its p50 with them; a slow request of the program's own
// does not move the p50. So the pool leaves the host's slow spells out
// and keeps the program's tail, and the tail rests on many samples.
func fasterHalf(cycles []*dist, p50s []float64) *dist {
	idx := make([]int, len(cycles))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return p50s[idx[x]] < p50s[idx[y]] })
	out := &dist{}
	for _, i := range idx[:(len(idx)+1)/2] {
		for _, v := range cycles[i].v {
			out.add(v)
		}
	}
	return out
}

// serviceMetrics sets the class latency metrics from the latency cycles
// and peak_ops_s from the closed-loop cycles (each peakLen long). Every
// metric reads the better half of the cycles: a class's p50 and tail come
// from the pooled samples of its faster half (fasterHalf), and peak_ops_s
// is the throughput of the half of the closed-loop cycles that did the
// most operations. A slow spell of the host covering less than half of
// the run then moves none of them.
func serviceMetrics(out *outcome, target [2]float64, lat, peak [][]sample, peakLen time.Duration, ca, cb []string) {
	m := out.metrics
	for i, kinds := range [][]string{ca, cb} {
		var cycles []*dist
		var p50s []float64
		for _, w := range lat {
			t := newTally()
			t.add(w)
			d := t.class(kinds...)
			cycles, p50s = append(cycles, d), append(p50s, d.p50())
		}
		pool := fasterHalf(cycles, p50s)
		c := string(rune('a' + i))
		m[c+"_p50_ms"] = pool.p50()
		m[c+"_tail_ms"] = tailOf(pool, target[i])
		if p := tailPercentile(pool.n()); p < target[i] {
			out.note("class %s: the faster cycles hold only %d samples; its tail reads p%g, not p%g", c, pool.n(), p, target[i])
		}
		out.note("class %s %v: p50 %.4f ms, p%g %.4f ms over %d pooled samples; per cycle p50 %.3f", c, kinds, m[c+"_p50_ms"], target[i], m[c+"_tail_ms"], pool.n(), p50s)
	}
	var ops []float64
	for _, w := range peak {
		t := newTally()
		t.add(w)
		ops = append(ops, float64(t.ops)/peakLen.Seconds())
	}
	best := append([]float64(nil), ops...)
	sort.Sort(sort.Reverse(sort.Float64Slice(best)))
	best = best[:(len(best)+1)/2]
	var sum float64
	for _, v := range best {
		sum += v
	}
	m["peak_ops_s"] = sum / float64(len(best))
	out.note("peak ops/s per cycle %.1f", ops)
	late := newTally()
	for _, w := range lat {
		late.add(w)
	}
	out.note("generator lateness: p50 %.4f ms, p99 %.4f ms", late.late.p50(), tailOf(&late.late, 99))
}

// perLayer metrics are reported with -trace 1. A layer the workload does
// not reach reports 0.
var perLayer = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"server.handler_us_p50", "us"},
	{"server.overhead_us_p50", "us"},
	{"server.pool_clones", "count"},
	{"server.req_bytes", "B"},
	{"server.resp_bytes", "B"},
	{"core.approx.points_per_q", "points"},
	{"core.thresh.points_per_q", "points"},
	{"core.approx.iters_per_q", "count"},
	{"core.thresh.iters_per_q", "count"},
	{"core.approx.nodes_per_q", "count"},
	{"core.approx.engine_us_p50", "us"},
	{"core.approx.engine_us_p99", "us"},
	{"core.thresh.engine_us_p50", "us"},
	{"core.thresh.engine_us_p99", "us"},
	{"core.scan_ns_per_point", "ns"},
	{"core.approx.nonscan_us_per_q", "us"},
	{"index.build_s", "s"},
	{"index.bytes_per_point", "B"},
	{"dualtree.routed_frac", "ratio"},
	{"dualtree.tile.points_per_q", "points"},
	{"dualtree.score.points_per_q", "points"},
	{"dualtree.node_pairs_per_q", "count"},
	{"dualtree.group_certified_frac", "ratio"},
	{"dualtree.fallbacks", "count"},
	{"dualtree.tile.engine_ms_p50", "ms"},
	{"dualtree.score.engine_ms_p50", "ms"},
	{"dualtree.tile.seq_ref_ms_p50", "ms"},
	{"dualtree.score.seq_ref_ms_p50", "ms"},
	{"dynamic.insert_us_p50", "us"},
	{"dynamic.delete_us_p50", "us"},
	{"dynamic.query_us_p50", "us"},
	{"dynamic.points_per_call", "points"},
	{"segment.seals", "count"},
	{"segment.compactions", "count"},
	{"segment.segments_mean", "count"},
	{"segment.tombstones_end", "count"},
	{"cluster.shard_calls_per_q", "count"},
	{"cluster.shard_rpc_us_p50", "us"},
	{"cluster.coord_self_us_p50", "us"},
	{"cluster.insert_route_us_p50", "us"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"cluster.hedge_win_frac", "ratio"},
	{"cluster.rescatters", "count"},
	{"cluster.splits", "count"},
	{"replica.lag_p50_seqs", "seqs"},
	{"replica.lag_max_seqs", "seqs"},
	{"replica.pull_us_p50", "us"},
	{"replica.pulls", "count"},
	{"replica.resyncs", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_frac", "ratio"},
}

// outcome is one run's result before printing.
type outcome struct {
	attempted, failed int
	// correct is false when any checked answer was wrong or the end-of-run
	// consistency check failed.
	correct    bool
	violations int
	metrics    map[string]float64
	notes      []string
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// finish folds the run's request tally into the outcome. A checked answer
// that was wrong is a failed operation and makes the run incorrect.
func (o *outcome) finish(t *tally) {
	o.attempted += t.attempted
	o.failed += t.failed
	o.violations += t.violations
	o.correct = o.violations == 0
	if t.firstErr != nil {
		o.note("first failure: %v", t.firstErr)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report builds the printed result: every metric of the run's mode, by
// name and unit. An end-to-end metric the run did not measure is an
// error; a per-layer one reads 0 (the layer was not reached).
func report(cfg runCfg, o *outcome) (jsonResult, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := jsonResult{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !cfg.trace {
			return res, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func run(ctx context.Context, cfg runCfg) (*outcome, error) {
	switch cfg.workload {
	case "kde-point":
		return runStatic(ctx, cfg, false)
	case "kde-batch":
		return runStatic(ctx, cfg, true)
	case "cluster-rw":
		return runCluster(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want kde-point, kde-batch or cluster-rw)", cfg.workload)
}

func main() {
	var cfg runCfg
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: kde-point, kde-batch or cluster-rw")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.spansDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "servebench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "servebench: -seconds must be positive")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if _, ok := classes[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "servebench: unknown workload %q (want kde-point, kde-batch or cluster-rw)\n", cfg.workload)
		os.Exit(2)
	}

	ctx := context.Background()
	o, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	res, err := report(cfg, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	cl := classes[cfg.workload]
	fmt.Printf("workload %s seed %d: class a = %s, class b = %s\n", cfg.workload, cfg.seed, cl[0], cl[1])
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  attempted %d, failed %d, violations %d, correct %v\n", res.Attempted, res.Failed, o.violations, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
