package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"karl"
	"karl/internal/server"
)

// Static workloads: internal/server over one karl.Engine built on 200k
// home points (16 MB of coordinates, well beyond a 2 MiB L2).
const (
	staticN     = 200_000
	conns       = 2
	pointRate   = 400 // kde-point open-loop arrivals per second
	tileSide    = 16  // tile batches are tileSide² queries
	tileHalf    = 0.02
	scoreSize   = 64  // scattered queries per score batch
	pointChecks = 256 // kde-point requests checked against the oracle
	batchChecks = 48  // batches of each kind with one checked query
	checkEvery  = 4   // every checkEvery-th kde-point request is checked
)

type staticStack struct {
	pts        [][]float64
	gamma      float64
	eng        *karl.Engine
	host       *host
	buildS     float64
	indexBytes float64
}

// setupStatic generates the data, builds the index and brings the server
// up; the returned duration is the set-up time.
func setupStatic(ctx context.Context, seed int64) (*staticStack, time.Duration, error) {
	t0 := time.Now()
	pts, gamma, err := homeData(staticN, dataSeed)
	if err != nil {
		return nil, 0, err
	}
	before := heapAlloc()
	tb := time.Now()
	eng, err := karl.Build(pts, karl.Gaussian(gamma))
	if err != nil {
		return nil, 0, fmt.Errorf("building index: %w", err)
	}
	buildS := time.Since(tb).Seconds()
	idx := float64(int64(heapAlloc())-int64(before)) / float64(len(pts))
	srv, err := server.New(eng)
	if err != nil {
		return nil, 0, err
	}
	h, err := serve(srv)
	if err != nil {
		return nil, 0, err
	}
	if err := waitReady(ctx, h.url+"/v1/readyz"); err != nil {
		h.close()
		return nil, 0, err
	}
	return &staticStack{pts: pts, gamma: gamma, eng: eng, host: h, buildS: buildS, indexBytes: idx}, time.Since(t0), nil
}

// staticWork produces the static workloads' requests.
type staticWork struct {
	ids  uint64
	tau  float64
	pt   *queryGen // kde-point stream
	tile *queryGen
	scor *queryGen
	nPt  int
	nTl  int
	nSc  int
	// exact oracle values, by request index within each stream.
	ptExact, tlExact, scExact map[int]float64
}

func (w *staticWork) id() uint64 { w.ids++; return w.ids }

// newStaticWork draws each stream's checked prefix with a twin generator,
// computes the oracle for it, and sets τ to the median exact F of the
// checked kde-point queries.
func newStaticWork(st *staticStack, seed int64, batch bool) *staticWork {
	w := &staticWork{
		pt:   newQueryGen(st.pts, seedFor(seed, "point")),
		tile: newQueryGen(st.pts, seedFor(seed, "tile")),
		scor: newQueryGen(st.pts, seedFor(seed, "score")),
	}
	var qs [][]float64
	var where []func(v float64)
	if !batch {
		twin := newQueryGen(st.pts, seedFor(seed, "point"))
		w.ptExact = map[int]float64{}
		for i := 0; i < pointChecks*checkEvery; i++ {
			q, _ := pointQuery(twin)
			if i%checkEvery == 0 {
				i := i
				qs = append(qs, q)
				where = append(where, func(v float64) { w.ptExact[i] = v })
			}
		}
	} else {
		tt := newQueryGen(st.pts, seedFor(seed, "tile"))
		ts := newQueryGen(st.pts, seedFor(seed, "score"))
		w.tlExact, w.scExact = map[int]float64{}, map[int]float64{}
		for b := 0; b < batchChecks; b++ {
			b := b
			t := tt.tile(tileSide, tileHalf)
			qs = append(qs, t[checkedIndex(b, len(t))])
			where = append(where, func(v float64) { w.tlExact[b] = v })
			s := ts.scattered(scoreSize)
			qs = append(qs, s[checkedIndex(b, len(s))])
			where = append(where, func(v float64) { w.scExact[b] = v })
		}
	}
	vals := exactAll(st.pts, st.gamma, qs)
	for i, v := range vals {
		where[i](v)
	}
	w.tau = median(vals)
	return w
}

func checkedIndex(b, size int) int { return (b*37 + 5) % size }

// pointQuery draws one kde-point query and its kind (half approximate,
// half threshold).
func pointQuery(g *queryGen) ([]float64, string) {
	q := g.query()
	if g.rng.Intn(2) == 0 {
		return q, "approx"
	}
	return q, "thresh"
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers are encoded
	}
	return b
}

func (w *staticWork) point() *op {
	i := w.nPt
	w.nPt++
	q, kind := pointQuery(w.pt)
	o := &op{id: w.id(), kind: kind, method: http.MethodPost, n: 1, q: q}
	exact, checked := w.ptExact[i]
	if kind == "approx" {
		o.path = "/v1/approximate"
		o.body = mustJSON(server.QueryRequest{Q: q, Eps: eps})
		if checked {
			o.check = func(body []byte) error {
				var r server.ValueResponse
				if err := json.Unmarshal(body, &r); err != nil {
					return err
				}
				return checkApprox(r.Value, exact)
			}
		}
		return o
	}
	tau := w.tau
	o.path = "/v1/threshold"
	o.body = mustJSON(server.QueryRequest{Q: q, Tau: tau})
	if checked {
		o.check = func(body []byte) error {
			var r server.BoolResponse
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			return checkThreshold(r.Over, exact, tau)
		}
	}
	return o
}

func (w *staticWork) batchOp(kind string, qs [][]float64, exact float64, checked bool, b int) *op {
	o := &op{id: w.id(), kind: kind, method: http.MethodPost, path: "/v1/batch", n: len(qs), batch: qs,
		body: mustJSON(server.BatchRequest{Kind: "approximate", Queries: qs, Eps: eps, Workers: 1})}
	if checked {
		j := checkedIndex(b, len(qs))
		o.check = func(body []byte) error {
			var r server.BatchResponse
			if err := json.Unmarshal(body, &r); err != nil {
				return err
			}
			if len(r.Values) != len(qs) {
				return fmt.Errorf("batch answered %d of %d queries", len(r.Values), len(qs))
			}
			return checkApprox(r.Values[j], exact)
		}
	}
	return o
}

func (w *staticWork) tileOp() *op {
	b := w.nTl
	w.nTl++
	exact, ok := w.tlExact[b]
	return w.batchOp("tile", w.tile.tile(tileSide, tileHalf), exact, ok, b)
}

func (w *staticWork) scoreOp() *op {
	b := w.nSc
	w.nSc++
	exact, ok := w.scExact[b]
	return w.batchOp("score", w.scor.scattered(scoreSize), exact, ok, b)
}

// warmUp sends unmeasured, unchecked traffic from a separate stream so
// clone pools fill and lazy set-up finishes before timing.
func warmUp(ctx context.Context, c *client, st *staticStack, seed int64, batch bool) []sample {
	g := newQueryGen(st.pts, seedFor(seed, "warm"))
	src := func() *op {
		if batch {
			qs := g.scattered(scoreSize)
			return &op{kind: "warm", method: http.MethodPost, path: "/v1/batch", n: len(qs),
				body: mustJSON(server.BatchRequest{Kind: "approximate", Queries: qs, Eps: eps, Workers: 1})}
		}
		q := g.query()
		return &op{kind: "warm", method: http.MethodPost, path: "/v1/approximate", n: 1,
			body: mustJSON(server.QueryRequest{Q: q, Eps: eps})}
	}
	return closedLoop(ctx, c, []source{src}, 500*time.Millisecond, conns)
}

// staticPhase runs the measured traffic of one static workload against
// base for dur and returns the samples.
func staticPhase(ctx context.Context, c *client, w *staticWork, batch bool, open, closed time.Duration, seed int64, record func(*op)) (openS, closedS []sample) {
	wrap := func(f source) source {
		return func() *op {
			o := f()
			if record != nil {
				record(o)
			}
			return o
		}
	}
	if batch {
		return nil, closedLoop(ctx, c, []source{wrap(w.tileOp), wrap(w.scoreOp)}, closed, conns)
	}
	if open > 0 {
		openS = openLoop(ctx, c, wrap(w.point), arrivals(pointRate, open, seedFor(seed, "arrivals")), conns)
	}
	if closed > 0 {
		closedS = closedLoop(ctx, c, []source{wrap(w.point)}, closed, conns)
	}
	return openS, closedS
}

func classesOf(batch bool) (a, b []string) {
	if batch {
		return []string{"tile"}, []string{"score"}
	}
	return []string{"approx"}, []string{"thresh"}
}

// runStatic runs kde-point (batch=false) or kde-batch (batch=true).
func runStatic(ctx context.Context, cfg runCfg, batch bool) (*outcome, error) {
	if cfg.trace {
		return traceStatic(ctx, cfg, batch)
	}
	var setups []float64
	var st *staticStack
	for i := 0; i < setupReps; i++ {
		s, d, err := setupStatic(ctx, cfg.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			s.host.close()
			continue
		}
		st = s
	}
	defer st.host.close()
	w := newStaticWork(st, cfg.seed, batch)
	c := newClient(st.host.url, conns)
	defer c.close()
	out := &outcome{metrics: map[string]float64{}}
	all := newTally()
	all.add(warmUp(ctx, c, st, cfg.seed, batch))

	runtime.GC()
	var lat, peak [][]sample
	n := cycleCount[cfg.workload]
	var peakLen time.Duration
	if batch {
		// Closed loop throughout: each cycle is one closed-loop segment.
		peakLen = time.Duration(cfg.seconds / float64(n) * float64(time.Second))
		for range n {
			_, s := staticPhase(ctx, c, w, batch, 0, peakLen, cfg.seed, nil)
			all.add(s)
			lat = append(lat, s)
		}
		peak = lat
	} else {
		var open time.Duration
		open, peakLen = cycleSplit(cfg.seconds, n)
		lat, peak = cycled(ctx, c, w.point, pointRate, open, peakLen, n, conns, seedFor(cfg.seed, "arrivals"), nil)
		for i := range lat {
			all.add(lat[i])
			all.add(peak[i])
		}
	}
	ca, cb := classesOf(batch)
	out.metrics["setup_s"] = median(setups)
	out.metrics["heap_mb"] = heapMB()
	serviceMetrics(out, tailTargets[cfg.workload], lat, peak, peakLen, ca, cb)
	out.note("setups %.4f s", setups)
	out.finish(all)
	return out, nil
}
