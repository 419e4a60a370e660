package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"karl"
	"karl/internal/server"
)

// replayCap bounds the in-process replay of a traced phase: every kde-point
// request up to pointReplayCap, and the first batchReplayCap batches of
// each kind.
const (
	pointReplayCap = 4000
	batchReplayCap = 10
	scanQueries    = 16
)

func getJSON(ctx context.Context, url string, dst any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

func serverStats(ctx context.Context, base string) (server.StatsResponse, error) {
	var st server.StatsResponse
	err := getJSON(ctx, base+"/v1/stats", &st)
	return st, err
}

// engineWork accumulates engine statistics per query class.
// Each add is one engine call answering n queries.
type engineWork struct {
	queries, points, iters, nodes float64
	us                            dist    // engine time per query, µs, one entry per call
	callPoints                    float64 // Σ over calls of points scanned per query
}

func (e *engineWork) add(n int, st karl.Stats, d time.Duration) {
	e.queries += float64(n)
	e.points += float64(st.PointsScanned)
	e.iters += float64(st.Iterations)
	e.nodes += float64(st.NodesExpanded)
	e.us.add(us(d) / float64(n))
	e.callPoints += float64(st.PointsScanned) / float64(n)
}

// scanRate times exact aggregation over a fixed query set and returns
// nanoseconds per point scanned: the leaf-scan and exp rate.
func scanRate(eng karl.QueryEngine, qs [][]float64) float64 {
	var pts int
	start := time.Now()
	for _, q := range qs {
		_, st, err := eng.AggregateStats(q)
		if err != nil {
			return 0
		}
		pts += st.PointsScanned
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(pts))
}

// coreMetrics writes the core.* metrics from per-class engine work.
func coreMetrics(m map[string]float64, approx, thresh *engineWork, scanNs float64) {
	m["core.approx.points_per_q"] = ratio(approx.points, approx.queries)
	m["core.thresh.points_per_q"] = ratio(thresh.points, thresh.queries)
	m["core.approx.iters_per_q"] = ratio(approx.iters, approx.queries)
	m["core.thresh.iters_per_q"] = ratio(thresh.iters, thresh.queries)
	m["core.approx.nodes_per_q"] = ratio(approx.nodes, approx.queries)
	m["core.approx.engine_us_p50"] = approx.us.p50()
	m["core.approx.engine_us_p99"] = tailOf(&approx.us, 99)
	m["core.thresh.engine_us_p50"] = thresh.us.p50()
	m["core.thresh.engine_us_p99"] = tailOf(&thresh.us, 99)
	m["core.scan_ns_per_point"] = scanNs
	// Engine time not spent scanning leaves: bounds, queue and arming.
	if n := float64(approx.us.n()); n > 0 {
		m["core.approx.nonscan_us_per_q"] = approx.us.mean() - approx.callPoints/n*scanNs/1000
	}
}

// tailOf reads percentile p, or the highest the sample supports.
func tailOf(d *dist, p float64) float64 {
	if s := tailPercentile(d.n()); s < p {
		p = s
	}
	return d.q(p)
}

// queryRoute reports whether a server span is a query request (not a
// stats, info or replication call).
func queryRoute(s span) bool {
	switch s.Op {
	case "POST /v1/approximate", "POST /v1/threshold", "POST /v1/aggregate", "POST /v1/bounds", "POST /v1/batch":
		return true
	}
	return false
}

// traceStatic is the traced run of kde-point or kde-batch. It runs half
// the time against the plain server and half against a second server over
// the same engine wrapped in tracing middleware, then replays the traced
// requests on engine clones in-process to split handler time into engine
// and server work (server.New takes a concrete engine, so the engine
// itself cannot be decorated).
func traceStatic(ctx context.Context, cfg runCfg, batch bool) (*outcome, error) {
	st, _, err := setupStatic(ctx, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer st.host.close()
	rec := newRecorder()
	srvT, err := server.New(st.eng)
	if err != nil {
		return nil, err
	}
	hT, err := serve(rec.handler(layerServer, "static", srvT))
	if err != nil {
		return nil, err
	}
	defer hT.close()
	if err := waitReady(ctx, hT.url+"/v1/readyz"); err != nil {
		return nil, err
	}
	var seqEng *karl.Engine
	if batch {
		seqEng, err = karl.Build(st.pts, karl.Gaussian(st.gamma), karl.WithBatchExecutor(karl.BatchSequential))
		if err != nil {
			return nil, err
		}
	}
	w := newStaticWork(st, cfg.seed, batch)
	cU, cT := newClient(st.host.url, conns), newClient(hT.url, conns)
	defer cU.close()
	defer cT.close()
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	all := newTally()
	all.add(warmUp(ctx, cU, st, cfg.seed, batch))
	all.add(warmUp(ctx, cT, st, cfg.seed, batch))
	rec.reset()

	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	open, closed := half, time.Duration(0)
	if batch {
		open, closed = 0, half
	}
	allocs := startAllocs()
	uOpen, uClosed := staticPhase(ctx, cU, w, batch, open, closed, cfg.seed, nil)
	mallocs, gcs := allocs.since()
	tU := newTally()
	tU.add(uOpen)
	tU.add(uClosed)

	before, err := serverStats(ctx, hT.url)
	if err != nil {
		return nil, err
	}
	var traced []*op
	tOpen, tClosed := staticPhase(ctx, cT, w, batch, open, closed, cfg.seed, func(o *op) { traced = append(traced, o) })
	after, err := serverStats(ctx, hT.url)
	if err != nil {
		return nil, err
	}
	tT := newTally()
	tT.add(tOpen)
	tT.add(tClosed)
	all.add(uOpen)
	all.add(uClosed)
	all.add(tOpen)
	all.add(tClosed)
	spans := rec.snapshot()
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	out.note("%d spans written to %s", len(spans), path)

	// In-process replay of the traced requests.
	engineUs := map[uint64]float64{}
	var approx, thresh engineWork
	if batch {
		tiles, scores := &dist{}, &dist{}
		tileRef, scoreRef := &dist{}, &dist{}
		var tilePts, tileQ, scorePts, scoreQ float64
		// All auto-routed replays run first, then the sequential reference,
		// so neither evicts the other's working set between batches.
		var batches []*op
		counts := map[string]int{}
		for _, o := range traced {
			if counts[o.kind] < batchReplayCap {
				counts[o.kind]++
				batches = append(batches, o)
			}
		}
		auto, seq := st.eng.Clone(), seqEng.Clone()
		for _, o := range batches {
			t0 := time.Now()
			_, s, err := auto.BatchApproximateStats(o.batch, eps, 1)
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("replaying batch: %w", err)
			}
			approx.add(len(o.batch), s, d)
			engineUs[o.id] = us(d)
			if o.kind == "tile" {
				tiles.add(ms(d))
				tilePts += float64(s.PointsScanned)
				tileQ += float64(len(o.batch))
			} else {
				scores.add(ms(d))
				scorePts += float64(s.PointsScanned)
				scoreQ += float64(len(o.batch))
			}
		}
		for _, o := range batches {
			t0 := time.Now()
			if _, _, err := seq.BatchApproximateStats(o.batch, eps, 1); err != nil {
				return nil, fmt.Errorf("replaying batch sequentially: %w", err)
			}
			if o.kind == "tile" {
				tileRef.add(ms(time.Since(t0)))
			} else {
				scoreRef.add(ms(time.Since(t0)))
			}
		}
		dt := func(f func(server.DualTreeBatchStats) int64) float64 {
			return float64(f(*after.DualTree) - f(*before.DualTree))
		}
		hits := dt(func(s server.DualTreeBatchStats) int64 { return s.Hits })
		misses := dt(func(s server.DualTreeBatchStats) int64 { return s.Misses })
		dq := dt(func(s server.DualTreeBatchStats) int64 { return s.Queries })
		m["dualtree.routed_frac"] = ratio(hits, hits+misses)
		m["dualtree.node_pairs_per_q"] = ratio(dt(func(s server.DualTreeBatchStats) int64 { return s.NodePairs }), dq)
		m["dualtree.group_certified_frac"] = ratio(dt(func(s server.DualTreeBatchStats) int64 { return s.GroupCertified }), dq)
		m["dualtree.fallbacks"] = dt(func(s server.DualTreeBatchStats) int64 { return s.Fallbacks })
		m["dualtree.tile.points_per_q"] = ratio(tilePts, tileQ)
		m["dualtree.score.points_per_q"] = ratio(scorePts, scoreQ)
		m["dualtree.tile.engine_ms_p50"] = tiles.p50()
		m["dualtree.score.engine_ms_p50"] = scores.p50()
		m["dualtree.tile.seq_ref_ms_p50"] = tileRef.p50()
		m["dualtree.score.seq_ref_ms_p50"] = scoreRef.p50()
	} else {
		cl := st.eng.Clone()
		for i, o := range traced {
			if i >= pointReplayCap {
				break
			}
			t0 := time.Now()
			var s karl.Stats
			if o.kind == "approx" {
				_, s, err = cl.ApproximateStats(o.q, eps)
			} else {
				_, s, err = cl.ThresholdStats(o.q, w.tau)
			}
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("replaying query: %w", err)
			}
			engineUs[o.id] = us(d)
			if o.kind == "approx" {
				approx.add(1, s, d)
			} else {
				thresh.add(1, s, d)
			}
		}
	}
	scanQs := newQueryGen(st.pts, seedFor(cfg.seed, "scan")).scattered(scanQueries)
	coreMetrics(m, &approx, &thresh, scanRate(st.eng.Clone(), scanQs))

	var handler, overhead, in, outB dist
	for _, s := range spans {
		if s.Layer != layerServer || !queryRoute(s) {
			continue
		}
		handler.add(float64(s.dur()) / 1e3)
		in.add(float64(s.In))
		outB.add(float64(s.Out))
		if e, ok := engineUs[s.Req]; ok {
			overhead.add(float64(s.dur())/1e3 - e)
		}
	}
	m["server.handler_us_p50"] = handler.p50()
	m["server.overhead_us_p50"] = overhead.p50()
	m["server.req_bytes"] = in.mean()
	m["server.resp_bytes"] = outB.mean()
	m["server.pool_clones"] = float64(after.Pool.Clones - before.Pool.Clones)
	m["loadgen.late_p99_ms"] = tailOf(&tT.late, 99)
	m["index.build_s"] = st.buildS
	m["index.bytes_per_point"] = st.indexBytes
	m["runtime.allocs_per_op"] = ratio(mallocs, float64(tU.ops))
	m["runtime.gc_cycles"] = gcs
	ca, _ := classesOf(batch)
	pU, pT := tU.class(ca...).p50(), tT.class(ca...).p50()
	m["trace.overhead_frac"] = ratio(pT-pU, pU)
	out.note("class a p50: untraced %.4f ms, traced %.4f ms", pU, pT)
	out.finish(all)
	return out, nil
}
