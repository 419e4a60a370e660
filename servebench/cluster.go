package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"karl"
	"karl/internal/cluster"
	"karl/internal/replica"
	"karl/internal/server"
	"karl/internal/shard"
)

// cluster-rw: a writable coordinator over four hash-routed leaders, each
// with one replication follower, seeded with 100k home points (about
// 2 MB of coordinates per shard, within a 2 MiB L2 together with its
// index). Every hop is a loopback HTTP call.
const (
	clusterShards = 4
	clusterSeedN  = 100_000
	seedBatch     = 2_000
	clusterRate   = 150 // cluster-rw open-loop arrivals per second
	insertPoints  = 16
	clusterChecks = 8
	tauSample     = 64
	settlePause   = 250 * time.Millisecond
)

type clusterStack struct {
	pts      [][]float64 // seeded points, index-aligned with seedIDs
	seedIDs  []uint64
	gamma    float64
	leaders  []*karl.DynamicEngine
	leadURLs []string
	appliers []*replica.Applier
	folURLs  []string
	coord    *cluster.WritableCoordinator
	url      string
	hosts    []*host // leaders and followers; coordinator last
	stop     context.CancelFunc
	wg       sync.WaitGroup
}

// close stops the followers' pull loops, then every listener, front first.
func (c *clusterStack) close() {
	c.stop()
	c.wg.Wait()
	for i := len(c.hosts) - 1; i >= 0; i-- {
		c.hosts[i].close()
	}
}

// shardHTTP is the coordinator's and followers' HTTP client: the same
// transport settings cluster.NewHTTPShard uses, timed when rec is set.
func shardHTTP(rec *recorder) *http.Client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second}
	if rec != nil {
		rt = &transport{rec: rec, base: rt}
	}
	return &http.Client{Transport: rt}
}

// setupCluster brings the cluster up: leaders, seeding through a founding
// coordinator, followers bootstrapped and caught up, then the serving
// coordinator founded over the same members with the live followers
// attached (the way a coordinator restart picks followers up). With rec
// set every layer is decorated for tracing.
func setupCluster(ctx context.Context, seed int64, rec *recorder) (_ *clusterStack, _ time.Duration, err error) {
	t0 := time.Now()
	pts, gamma, err := homeData(clusterSeedN, dataSeed)
	if err != nil {
		return nil, 0, err
	}
	runCtx, stop := context.WithCancel(context.Background())
	st := &clusterStack{pts: pts, gamma: gamma, stop: stop}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	kern := karl.Gaussian(gamma)
	hc := shardHTTP(rec)
	wrap := func(layer, where string, h http.Handler) http.Handler {
		if rec == nil {
			return h
		}
		return rec.handler(layer, where, h)
	}
	mutable := func(d *karl.DynamicEngine, where string) karl.MutableEngine {
		if rec == nil {
			return d
		}
		return &tracedDyn{DynamicEngine: d, rec: rec, where: where}
	}
	serveOn := func(h http.Handler) (string, error) {
		hs, err := serve(h)
		if err != nil {
			return "", err
		}
		st.hosts = append(st.hosts, hs)
		return hs.url, nil
	}

	founders := make([]cluster.WritableShard, clusterShards)
	for i := range founders {
		d, err := karl.NewDynamic(kern)
		if err != nil {
			return nil, 0, err
		}
		where := fmt.Sprintf("leader-%d", i+1)
		srv, err := server.NewMutable(mutable(d, where))
		if err != nil {
			return nil, 0, err
		}
		url, err := serveOn(wrap(layerServer, where, srv))
		if err != nil {
			return nil, 0, err
		}
		st.leaders = append(st.leaders, d)
		st.leadURLs = append(st.leadURLs, url)
		founders[i] = cluster.WritableShard{Name: url, Client: cluster.NewHTTPShard(url)}
	}
	cfg := cluster.WritableConfig{MinSplitPoints: math.MaxInt32}
	seeder, err := cluster.NewWritable(ctx, shard.Hash, founders, nil, cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("founding seeding coordinator: %w", err)
	}
	for b := 0; b < len(pts); b += seedBatch {
		ids, err := seeder.Insert(ctx, pts[b:min(b+seedBatch, len(pts))], nil)
		if err != nil {
			return nil, 0, fmt.Errorf("seeding: %w", err)
		}
		st.seedIDs = append(st.seedIDs, ids...)
	}

	shards := make([]cluster.WritableShard, clusterShards)
	for i := range shards {
		where := fmt.Sprintf("follower-%d", i+1)
		d, err := karl.NewDynamic(kern)
		if err != nil {
			return nil, 0, err
		}
		var src replica.Source = replica.NewHTTPSourceClient(st.leadURLs[i], hc)
		if rec != nil {
			src = &tracedSource{Source: src, rec: rec, where: where}
		}
		a := replica.NewApplier(d, src)
		a.BootstrapFromSnapshot()
		srv, err := server.NewMutable(mutable(d, where), server.WithReplicaApplier(a))
		if err != nil {
			return nil, 0, err
		}
		url, err := serveOn(wrap(layerServer, where, srv))
		if err != nil {
			return nil, 0, err
		}
		if err := a.CatchUp(ctx); err != nil {
			return nil, 0, fmt.Errorf("follower %d catch-up: %w", i+1, err)
		}
		st.appliers = append(st.appliers, a)
		st.folURLs = append(st.folURLs, url)
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			a.Run(runCtx, 0) // ends with runCtx; sync errors show in follower status
		}()

		var lead cluster.MutableShardClient = cluster.NewHTTPShardClient(st.leadURLs[i], hc)
		var fol cluster.FollowerClient = cluster.NewHTTPShardClient(url, hc)
		if rec != nil {
			lead = &tracedShard{MutableShardClient: lead, rec: rec}
			fol = &tracedFollower{FollowerClient: fol, rec: rec}
		}
		shards[i] = cluster.WritableShard{Name: st.leadURLs[i], Client: lead, Followers: []cluster.FollowerClient{fol}}
	}
	st.coord, err = cluster.NewWritable(ctx, shard.Hash, shards, nil, cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("founding coordinator: %w", err)
	}
	st.url, err = serveOn(wrap(layerFront, "coord", cluster.NewWritableHTTPServer(st.coord)))
	if err != nil {
		return nil, 0, err
	}
	if err := waitReady(ctx, st.url+"/v1/readyz"); err != nil {
		return nil, 0, err
	}
	return st, time.Since(t0), nil
}

// clusterWork produces cluster-rw's request stream and keeps the
// benchmark's own record of which points are live.
type clusterWork struct {
	ids      uint64
	g        *queryGen
	tau      float64
	seedIDs  []uint64
	delOrder []int
	delNext  int

	mu   sync.Mutex
	live map[uint64][]float64 // cluster-global id → point
	kind map[uint64]string    // query key → "approx" or "thresh"
}

func newClusterWork(st *clusterStack, seed int64) *clusterWork {
	w := &clusterWork{
		g:        newQueryGen(st.pts, seedFor(seed, "cluster")),
		seedIDs:  st.seedIDs,
		delOrder: rand.New(rand.NewSource(seedFor(seed, "deletes"))).Perm(len(st.pts)),
		live:     make(map[uint64][]float64, len(st.pts)),
		kind:     map[uint64]string{},
	}
	for i, id := range st.seedIDs {
		w.live[id] = st.pts[i]
	}
	w.tau = median(exactAll(st.pts, st.gamma, newQueryGen(st.pts, seedFor(seed, "tau")).scattered(tauSample)))
	return w
}

// next draws one request: 55% approximate, 20% threshold, 20% inserts of
// fresh points, 5% deletes of seeded points in a seeded order. Deletes
// only target seeded points, so the sequence does not depend on ids the
// cluster hands out during the run.
func (w *clusterWork) next() *op {
	w.ids++
	o := &op{id: w.ids, method: http.MethodPost, n: 1}
	switch r := w.g.rng.Intn(100); {
	case r < 55:
		q := w.g.query()
		o.kind, o.path, o.q = "approx", "/v1/approximate", q
		o.body = mustJSON(server.QueryRequest{Q: q, Eps: eps})
		w.noteQuery(q, "approx")
		o.check = func(body []byte) error {
			var r cluster.ClusterValueResponse
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			if r.Partial {
				return fmt.Errorf("partial answer, covered %g", r.Covered)
			}
			if r.Value < r.LB || r.Value > r.UB || r.UB > (1+eps)*r.LB*(1+1e-9) {
				return fmt.Errorf("approximate %g outside its certificate [%g, %g] at ε=%g", r.Value, r.LB, r.UB, eps)
			}
			return nil
		}
	case r < 75:
		q := w.g.query()
		o.kind, o.path, o.q = "thresh", "/v1/threshold", q
		o.body = mustJSON(server.QueryRequest{Q: q, Tau: w.tau})
		w.noteQuery(q, "thresh")
		o.check = func(body []byte) error {
			var r cluster.ClusterBoolResponse
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			if r.Partial {
				return fmt.Errorf("partial answer, covered %g", r.Covered)
			}
			return nil
		}
	case r < 95:
		pts := make([][]float64, insertPoints)
		for i := range pts {
			pts[i] = w.g.query()
		}
		o.kind, o.path, o.n = "insert", "/v1/insert", len(pts)
		o.body = mustJSON(server.InsertRequest{Points: pts})
		o.check = func(body []byte) error {
			var r cluster.ClusterInsertResponse
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			if len(r.IDs) != len(pts) {
				return fmt.Errorf("insert returned %d ids for %d points", len(r.IDs), len(pts))
			}
			w.mu.Lock()
			defer w.mu.Unlock()
			for i, id := range r.IDs {
				w.live[id] = pts[i]
			}
			return nil
		}
	default:
		id := w.seedIDs[w.delOrder[w.delNext]]
		w.delNext++
		o.kind, o.method, o.path = "delete", http.MethodDelete, "/v1/point"
		o.body = mustJSON(server.DeleteRequest{ID: id})
		o.check = func([]byte) error {
			w.mu.Lock()
			defer w.mu.Unlock()
			delete(w.live, id)
			return nil
		}
	}
	return o
}

func (w *clusterWork) noteQuery(q []float64, kind string) {
	w.mu.Lock()
	w.kind[hashQuery(q)] = kind
	w.mu.Unlock()
}

// clusterWarm sends unmeasured approximate reads from a separate stream;
// no writes, so the measured stream starts from the seeded state.
func clusterWarm(ctx context.Context, c *client, st *clusterStack, seed int64) []sample {
	g := newQueryGen(st.pts, seedFor(seed, "warm"))
	src := func() *op {
		return &op{kind: "warm", method: http.MethodPost, path: "/v1/approximate", n: 1,
			body: mustJSON(server.QueryRequest{Q: g.query(), Eps: eps})}
	}
	return closedLoop(ctx, c, []source{src}, 500*time.Millisecond, conns)
}

// verify lets the followers catch up after the load, then checks that
// exact aggregates through the coordinator and through follower 1 match
// direct sums over the benchmark's own record of live points.
func (st *clusterStack) verify(ctx context.Context, w *clusterWork, seed int64) []sample {
	for _, a := range st.appliers {
		if err := a.CatchUp(ctx); err != nil {
			return []sample{{kind: "verify", err: fmt.Errorf("follower catch-up: %w", err)}}
		}
	}
	w.mu.Lock()
	var all, first [][]float64
	for id, p := range w.live {
		all = append(all, p)
		if m, _ := cluster.DecodeID(id); m == 1 {
			first = append(first, p)
		}
	}
	w.mu.Unlock()
	qs := newQueryGen(st.pts, seedFor(seed, "verify")).scattered(clusterChecks)
	wantAll := exactAll(all, st.gamma, qs)
	wantFirst := exactAll(first, st.gamma, qs)
	same := func(got, want float64) error {
		if math.Abs(got-want) > 1e-9*math.Abs(want)+1e-12 {
			return fmt.Errorf("aggregate %.12g, exact sum over live points %.12g", got, want)
		}
		return nil
	}
	var out []sample
	for i, q := range qs {
		want, wantF := wantAll[i], wantFirst[i]
		body := mustJSON(server.QueryRequest{Q: q})
		checks := []struct {
			base  string
			check func([]byte) error
		}{
			{st.url, func(b []byte) error {
				var r cluster.ClusterValueResponse
				if err := json.Unmarshal(b, &r); err != nil {
					return err
				}
				return same(r.Value, want)
			}},
			{st.folURLs[0], func(b []byte) error {
				var r server.ValueResponse
				if err := json.Unmarshal(b, &r); err != nil {
					return err
				}
				return same(r.Value, wantF)
			}},
		}
		for _, c := range checks {
			cl := newClient(c.base, 1)
			err := cl.send(ctx, &op{method: http.MethodPost, path: "/v1/aggregate", body: body, check: c.check})
			cl.close()
			out = append(out, sample{kind: "verify", n: 1, err: err})
		}
	}
	return out
}

// settle returns a pause for after a closed-loop burst: the followers
// catch up and background merges get time to finish.
func (st *clusterStack) settle(ctx context.Context) func() {
	return func() {
		for _, a := range st.appliers {
			_ = a.CatchUp(ctx) // a failed pull shows in the end-of-run check
		}
		time.Sleep(settlePause)
	}
}

// runCluster runs cluster-rw.
func runCluster(ctx context.Context, cfg runCfg) (*outcome, error) {
	if cfg.trace {
		return traceCluster(ctx, cfg)
	}
	var setups []float64
	var st *clusterStack
	for i := 0; i < setupReps; i++ {
		s, d, err := setupCluster(ctx, cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			s.close()
			continue
		}
		st = s
	}
	defer st.close()
	w := newClusterWork(st, cfg.seed)
	c := newClient(st.url, conns)
	defer c.close()
	out := &outcome{metrics: map[string]float64{}}
	all := newTally()
	all.add(clusterWarm(ctx, c, st, cfg.seed))

	open, closed := cycleSplit(cfg.seconds, cycleCount[cfg.workload])
	runtime.GC()
	openW, closedW := cycled(ctx, c, w.next, clusterRate, open, closed, cycleCount[cfg.workload], conns, seedFor(cfg.seed, "arrivals"), st.settle(ctx))
	for i := range openW {
		all.add(openW[i])
		all.add(closedW[i])
	}
	all.add(st.verify(ctx, w, cfg.seed))

	out.metrics["setup_s"] = median(setups)
	out.metrics["heap_mb"] = heapMB()
	serviceMetrics(out, tailTargets[cfg.workload], openW, closedW, closed, []string{"approx", "thresh"}, []string{"insert", "delete"})
	lat := newTally()
	for _, w := range openW {
		lat.add(w)
	}
	for _, k := range []string{"approx", "thresh", "insert", "delete"} {
		d := lat.class(k)
		out.note("%s: p50 %.4f ms over %d", k, d.p50(), d.n())
	}
	out.note("setups %.4f s", setups)
	out.finish(all)
	return out, nil
}
