package main

import (
	"context"
	"io"

	"karl"
	"karl/internal/cluster"
	"karl/internal/replica"
)

// tracedDyn times the calls internal/server makes into a mutable engine.
// Embedding the concrete engine forwards every method the server probes
// for beyond karl.MutableEngine (segment introspection, the replication
// export surface, ArmedEpoch), so a traced server serves the same routes
// and /v1/stats blocks as an untraced one. CloneQuery wraps the clone, so
// the pooled per-request views are traced too.
type tracedDyn struct {
	*karl.DynamicEngine
	rec   *recorder
	where string
}

var _ karl.MutableEngine = (*tracedDyn)(nil)

func (t *tracedDyn) query(op string, q []float64, start int64, st karl.Stats, err error) {
	t.rec.add(span{Layer: layerEngine, Op: op, Where: t.where, Start: start, End: t.rec.now(),
		Key: hashQuery(q), Points: st.PointsScanned, Iters: st.Iterations, Nodes: st.NodesExpanded, Err: err != nil})
}

func (t *tracedDyn) AggregateStats(q []float64) (float64, karl.Stats, error) {
	start := t.rec.now()
	v, st, err := t.DynamicEngine.AggregateStats(q)
	t.query("aggregate", q, start, st, err)
	return v, st, err
}

func (t *tracedDyn) ThresholdStats(q []float64, tau float64) (bool, karl.Stats, error) {
	start := t.rec.now()
	v, st, err := t.DynamicEngine.ThresholdStats(q, tau)
	t.query("threshold", q, start, st, err)
	return v, st, err
}

func (t *tracedDyn) ApproximateStats(q []float64, eps float64) (float64, karl.Stats, error) {
	start := t.rec.now()
	v, st, err := t.DynamicEngine.ApproximateStats(q, eps)
	t.query("approximate", q, start, st, err)
	return v, st, err
}

func (t *tracedDyn) write(op string, n int, start int64, err error) {
	t.rec.add(span{Layer: layerEngine, Op: op, Where: t.where, Start: start, End: t.rec.now(), Points: n, Err: err != nil})
}

func (t *tracedDyn) InsertID(p []float64, w float64) (uint64, error) {
	start := t.rec.now()
	id, err := t.DynamicEngine.InsertID(p, w)
	t.write("insert", 1, start, err)
	return id, err
}

func (t *tracedDyn) InsertBulk(points [][]float64, weights []float64) ([]uint64, error) {
	start := t.rec.now()
	ids, err := t.DynamicEngine.InsertBulk(points, weights)
	t.write("insert", len(points), start, err)
	return ids, err
}

func (t *tracedDyn) Delete(id uint64) error {
	start := t.rec.now()
	err := t.DynamicEngine.Delete(id)
	t.write("delete", 1, start, err)
	return err
}

func (t *tracedDyn) CloneQuery() karl.QueryEngine {
	c := t.DynamicEngine.CloneQuery()
	d, ok := c.(*karl.DynamicEngine)
	if !ok {
		return c
	}
	return &tracedDyn{DynamicEngine: d, rec: t.rec, where: t.where}
}

// tracedShard times the coordinator's calls into one member's client.
// The context carries the request id the front handler put there.
type tracedShard struct {
	cluster.MutableShardClient
	rec *recorder
}

func shardSpan(rec *recorder, ctx context.Context, op, where string, q []float64, start int64, err error) {
	s := span{Layer: layerShard, Op: op, Where: where, Req: reqOf(ctx), Start: start, End: rec.now(), Err: err != nil}
	if q != nil {
		s.Key = hashQuery(q)
	}
	rec.add(s)
}

func (t *tracedShard) Aggregate(ctx context.Context, q []float64) (float64, error) {
	start := t.rec.now()
	v, err := t.MutableShardClient.Aggregate(ctx, q)
	shardSpan(t.rec, ctx, "aggregate", t.Name(), q, start, err)
	return v, err
}

func (t *tracedShard) Bounds(ctx context.Context, q []float64, eps float64) (cluster.Bounds, error) {
	start := t.rec.now()
	b, err := t.MutableShardClient.Bounds(ctx, q, eps)
	shardSpan(t.rec, ctx, "bounds", t.Name(), q, start, err)
	return b, err
}

func (t *tracedShard) Insert(ctx context.Context, points [][]float64, weights []float64) ([]uint64, error) {
	start := t.rec.now()
	ids, err := t.MutableShardClient.Insert(ctx, points, weights)
	shardSpan(t.rec, ctx, "insert", t.Name(), nil, start, err)
	return ids, err
}

func (t *tracedShard) Delete(ctx context.Context, id uint64) error {
	start := t.rec.now()
	err := t.MutableShardClient.Delete(ctx, id)
	shardSpan(t.rec, ctx, "delete", t.Name(), nil, start, err)
	return err
}

// tracedFollower times the coordinator's hedged and failed-over reads on
// a replication follower; ReplicaStatus and Promote pass through.
type tracedFollower struct {
	cluster.FollowerClient
	rec *recorder
}

func (t *tracedFollower) Aggregate(ctx context.Context, q []float64) (float64, error) {
	start := t.rec.now()
	v, err := t.FollowerClient.Aggregate(ctx, q)
	shardSpan(t.rec, ctx, "aggregate", t.Name(), q, start, err)
	return v, err
}

func (t *tracedFollower) Bounds(ctx context.Context, q []float64, eps float64) (cluster.Bounds, error) {
	start := t.rec.now()
	b, err := t.FollowerClient.Bounds(ctx, q, eps)
	shardSpan(t.rec, ctx, "bounds", t.Name(), q, start, err)
	return b, err
}

// tracedSource times a follower's pulls from its leader.
type tracedSource struct {
	replica.Source
	rec   *recorder
	where string
}

func (t *tracedSource) Pull(ctx context.Context, fence, delPos uint64) (*karl.ReplicaBatch, error) {
	start := t.rec.now()
	b, err := t.Source.Pull(ctx, fence, delPos)
	t.rec.add(span{Layer: layerPull, Op: "pull", Where: t.where, Start: start, End: t.rec.now(), Err: err != nil})
	return b, err
}

func (t *tracedSource) Snapshot(ctx context.Context) (io.ReadCloser, uint64, error) {
	start := t.rec.now()
	rc, pos, err := t.Source.Snapshot(ctx)
	t.rec.add(span{Layer: layerPull, Op: "snapshot", Where: t.where, Start: start, End: t.rec.now(), Err: err != nil})
	return rc, pos, err
}
