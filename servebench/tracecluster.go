package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"karl"
	"karl/internal/cluster"
	"karl/internal/server"
)

// clusterCounters is the state the traced cluster run diffs across its
// traced phase.
type clusterCounters struct {
	leaders   []server.StatsResponse
	followers []server.StatsResponse
	shards    []cluster.ShardStats
	rescat    int64
	splits    int64
	resyncs   int64
}

func (st *clusterStack) counters(ctx context.Context) (clusterCounters, error) {
	c := clusterCounters{shards: st.coord.Stats(), rescat: st.coord.Rescatters(), splits: st.coord.Splits()}
	for _, u := range st.leadURLs {
		s, err := serverStats(ctx, u)
		if err != nil {
			return c, err
		}
		c.leaders = append(c.leaders, s)
	}
	for i, u := range st.folURLs {
		s, err := serverStats(ctx, u)
		if err != nil {
			return c, err
		}
		c.followers = append(c.followers, s)
		c.resyncs += st.appliers[i].Resyncs()
	}
	return c, nil
}

// sampler polls replication lag and segment counts while load runs.
type sampler struct {
	lag      dist
	segments dist
	stop     chan struct{}
	done     chan struct{}
}

func (st *clusterStack) sample(every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			var segs float64
			for i, l := range st.leaders {
				lead := l.NextSeq()
				fol := st.appliers[i].Status().NextSeq
				var lag float64
				if lead > fol {
					lag = float64(lead - fol)
				}
				s.lag.add(lag)
				segs += float64(len(l.Segments()))
			}
			s.segments.add(segs / float64(len(st.leaders)))
		}
	}()
	return s
}

func (s *sampler) end() { close(s.stop); <-s.done }

// traceCluster is the traced run of cluster-rw: half the time on an
// undecorated cluster, then the same request sequence on a fresh cluster
// whose every layer is decorated.
func traceCluster(ctx context.Context, cfg runCfg) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	all := newTally()
	half := time.Duration(cfg.seconds / 2 * float64(time.Second))
	due := arrivals(clusterRate, half, seedFor(cfg.seed, "arrivals"))

	stU, _, err := setupCluster(ctx, cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	wU := newClusterWork(stU, cfg.seed)
	cU := newClient(stU.url, conns)
	all.add(clusterWarm(ctx, cU, stU, cfg.seed))
	allocs := startAllocs()
	uS := openLoop(ctx, cU, wU.next, due, conns)
	mallocs, gcs := allocs.since()
	tU := newTally()
	tU.add(uS)
	all.add(uS)
	all.add(stU.verify(ctx, wU, cfg.seed))
	cU.close()
	stU.close()

	rec := newRecorder()
	st, _, err := setupCluster(ctx, cfg.seed, rec)
	if err != nil {
		return nil, err
	}
	defer st.close()
	w := newClusterWork(st, cfg.seed)
	c := newClient(st.url, conns)
	defer c.close()
	all.add(clusterWarm(ctx, c, st, cfg.seed))
	before, err := st.counters(ctx)
	if err != nil {
		return nil, err
	}
	rec.reset()
	smp := st.sample(20 * time.Millisecond)
	tS := openLoop(ctx, c, w.next, due, conns)
	smp.end()
	spans := rec.snapshot()
	after, err := st.counters(ctx)
	if err != nil {
		return nil, err
	}
	tT := newTally()
	tT.add(tS)
	all.add(tS)
	all.add(st.verify(ctx, w, cfg.seed))
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	out.note("%d spans written to %s", len(spans), path)

	kids := children(spans)
	var coordSelf, insertRoute, rpc, handler, overhead, in, outB dist
	var approx, thresh engineWork
	var dynQuery, dynInsert, dynDelete, dynPoints, pull dist
	var reads, shardCalls, pulls float64
	w.mu.Lock()
	kindOf := w.kind
	w.mu.Unlock()
	for _, s := range spans {
		switch s.Layer {
		case layerFront:
			switch s.Op {
			case "POST /v1/approximate", "POST /v1/threshold":
				reads++
				coordSelf.add(float64(selfTime(s, kids[s.ID])) / 1e3)
			case "POST /v1/insert":
				insertRoute.add(float64(selfTime(s, kids[s.ID])) / 1e3)
			}
		case layerShard:
			if s.Op == "bounds" || s.Op == "aggregate" {
				shardCalls++
				rpc.add(float64(s.dur()) / 1e3)
			}
		case layerServer:
			if queryRoute(s) {
				handler.add(float64(s.dur()) / 1e3)
				overhead.add(float64(selfTime(s, kids[s.ID])) / 1e3)
			}
			if queryRoute(s) || s.Op == "POST /v1/insert" || s.Op == "DELETE /v1/point" {
				in.add(float64(s.In))
				outB.add(float64(s.Out))
			}
		case layerEngine:
			d := time.Duration(s.dur())
			switch s.Op {
			case "insert":
				dynInsert.add(us(d))
			case "delete":
				dynDelete.add(us(d))
			default:
				dynQuery.add(us(d))
				dynPoints.add(float64(s.Points))
				st := karl.Stats{PointsScanned: s.Points, Iterations: s.Iters, NodesExpanded: s.Nodes}
				switch kindOf[s.Key] {
				case "approx":
					approx.add(1, st, d)
				case "thresh":
					thresh.add(1, st, d)
				}
			}
		case layerPull:
			if s.Op == "pull" {
				pulls++
				pull.add(float64(s.dur()) / 1e3)
			}
		}
	}
	// Engine work per client query: every shard call and round a query
	// caused, over the number of client queries of its kind.
	var nApprox, nThresh float64
	for _, k := range kindOf {
		if k == "approx" {
			nApprox++
		} else {
			nThresh++
		}
	}
	approx.queries, thresh.queries = nApprox, nThresh
	coreMetrics(m, &approx, &thresh, scanRate(st.leaders[0].CloneQuery(), newQueryGen(st.pts, seedFor(cfg.seed, "scan")).scattered(scanQueries)))

	m["server.handler_us_p50"] = handler.p50()
	m["server.overhead_us_p50"] = overhead.p50()
	m["server.req_bytes"] = in.mean()
	m["server.resp_bytes"] = outB.mean()
	var clones, seals, compactions, tombs float64
	for i := range after.leaders {
		a, b := after.leaders[i], before.leaders[i]
		clones += float64(a.Pool.Clones - b.Pool.Clones)
		seals += float64(a.Mutable.Seals - b.Mutable.Seals)
		compactions += float64(a.Mutable.Compactions - b.Mutable.Compactions)
		tombs += float64(a.Mutable.Tombstones)
	}
	for i := range after.followers {
		clones += float64(after.followers[i].Pool.Clones - before.followers[i].Pool.Clones)
	}
	m["server.pool_clones"] = clones
	m["segment.seals"] = seals
	m["segment.compactions"] = compactions
	m["segment.tombstones_end"] = tombs
	m["segment.segments_mean"] = smp.segments.mean()
	m["dynamic.insert_us_p50"] = dynInsert.p50()
	m["dynamic.delete_us_p50"] = dynDelete.p50()
	m["dynamic.query_us_p50"] = dynQuery.p50()
	m["dynamic.points_per_call"] = dynPoints.mean()

	var retries, hedges, wins int64
	for i := range after.shards {
		retries += after.shards[i].Retries - before.shards[i].Retries
		hedges += after.shards[i].Hedges - before.shards[i].Hedges
		wins += after.shards[i].HedgeWins - before.shards[i].HedgeWins
	}
	m["cluster.shard_calls_per_q"] = ratio(shardCalls, reads)
	m["cluster.shard_rpc_us_p50"] = rpc.p50()
	m["cluster.coord_self_us_p50"] = coordSelf.p50()
	m["cluster.insert_route_us_p50"] = insertRoute.p50()
	m["cluster.retries"] = float64(retries)
	m["cluster.hedges"] = float64(hedges)
	m["cluster.hedge_win_frac"] = ratio(float64(wins), float64(hedges))
	m["cluster.rescatters"] = float64(after.rescat - before.rescat)
	m["cluster.splits"] = float64(after.splits - before.splits)

	m["replica.lag_p50_seqs"] = smp.lag.p50()
	m["replica.lag_max_seqs"] = smp.lag.q(100)
	m["replica.pull_us_p50"] = pull.p50()
	m["replica.pulls"] = pulls
	m["replica.resyncs"] = float64(after.resyncs - before.resyncs)

	m["loadgen.late_p99_ms"] = tailOf(&tT.late, 99)
	m["runtime.allocs_per_op"] = ratio(mallocs, float64(tU.ops))
	m["runtime.gc_cycles"] = gcs
	pU, pT := tU.class("approx", "thresh").p50(), tT.class("approx", "thresh").p50()
	m["trace.overhead_frac"] = ratio(pT-pU, pU)
	out.note("class a p50: untraced %.4f ms, traced %.4f ms", pU, pT)
	out.finish(all)
	return out, nil
}
