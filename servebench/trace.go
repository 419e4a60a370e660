package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers, outermost first. A request's spans nest in this order:
// the front handler (cluster coordinator), the coordinator's shard-client
// call, that call's HTTP round trip, the shard's internal/server handler,
// and the engine call the handler makes.
const (
	layerFront  = "front"
	layerShard  = "shard"
	layerClient = "client"
	layerServer = "server"
	layerEngine = "engine"
	layerPull   = "replica.pull"
)

// parentLayer names the layer whose span encloses a span of the given
// layer within one request.
var parentLayer = map[string]string{
	layerShard:  layerFront,
	layerClient: layerShard,
	layerServer: layerClient,
}

// idHeader carries the load generator's request id across HTTP hops, so
// every span a request causes shares it.
const idHeader = "X-Bench-Id"

// span is one timed call at a layer boundary. Times are nanoseconds since
// the recorder started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Where  string `json:"where,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Key identifies the query vector (hashQuery) so engine calls, which
	// carry no context, can be tied to the handler span that made them.
	Key    uint64 `json:"key,omitempty"`
	Points int    `json:"points,omitempty"`
	Iters  int    `json:"iters,omitempty"`
	Nodes  int    `json:"nodes,omitempty"`
	In     int    `json:"in_bytes,omitempty"`
	Out    int    `json:"out_bytes,omitempty"`
	Err    bool   `json:"err,omitempty"`

	body []byte // captured request body, parsed for Key when linking
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is shared by
// every decorator of one traced stack.
type recorder struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(s span) {
	s.ID = r.next.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops the spans recorded so far (set-up and warm-up traffic).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far, linked (see link).
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	link(out)
	return out
}

// writeSpans stores spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type reqKey struct{}

func withReq(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, reqKey{}, id)
}

func reqOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqKey{}).(uint64)
	return id
}

// hashQuery identifies a query vector by its exact bits. Go's JSON codec
// round-trips float64 exactly, so a vector hashed before encoding and
// after decoding gets the same key.
func hashQuery(q []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range q {
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// countWriter counts response bytes.
type countWriter struct {
	http.ResponseWriter
	n int
}

func (w *countWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// handler wraps an HTTP layer in a span per request. The request id from
// idHeader is put on the request context, where the coordinator's shard
// calls and their HTTP client pick it up.
func (r *recorder) handler(layer, where string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := r.now()
		id, _ := strconv.ParseUint(req.Header.Get(idHeader), 10, 64)
		body, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		if id != 0 {
			req = req.WithContext(withReq(req.Context(), id))
		}
		cw := &countWriter{ResponseWriter: w}
		h.ServeHTTP(cw, req)
		r.add(span{Layer: layer, Op: req.Method + " " + req.URL.Path, Where: where, Req: id,
			Start: start, End: r.now(), In: len(body), Out: cw.n, body: body})
	})
}

// transport is an http.RoundTripper that times each round trip and
// forwards the request id as idHeader.
type transport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := reqOf(req.Context())
	if id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(idHeader, strconv.FormatUint(id, 10))
	}
	start := t.rec.now()
	resp, err := t.base.RoundTrip(req)
	t.rec.add(span{Layer: layerClient, Op: req.Method + " " + req.URL.Path, Where: req.URL.Host,
		Req: id, Start: start, End: t.rec.now(), Err: err != nil})
	return resp, err
}

// link fills in Req and Parent. An engine span carries no request
// context; it is tied to the handler span on the same instance whose
// request body holds the same query vector and whose interval encloses
// it. Every other span's parent is the enclosing span of the layer above
// with the same request id.
func link(spans []span) {
	type wk struct {
		where string
		key   uint64
	}
	handlers := map[wk][]int{}
	byReq := map[uint64][]int{}
	for i := range spans {
		s := &spans[i]
		if s.Layer == layerServer && len(s.body) > 0 {
			var body struct {
				Q []float64 `json:"q"`
			}
			if json.Unmarshal(s.body, &body) == nil && len(body.Q) > 0 {
				s.Key = hashQuery(body.Q)
				handlers[wk{s.Where, s.Key}] = append(handlers[wk{s.Where, s.Key}], i)
			}
		}
		if s.Req != 0 {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Layer == layerEngine && s.Key != 0:
			if j := enclosing(spans, handlers[wk{s.Where, s.Key}], *s); j >= 0 {
				s.Parent, s.Req = spans[j].ID, spans[j].Req
			}
		case s.Req != 0 && parentLayer[s.Layer] != "":
			var cands []int
			for _, j := range byReq[s.Req] {
				if spans[j].Layer == parentLayer[s.Layer] {
					cands = append(cands, j)
				}
			}
			if j := enclosing(spans, cands, *s); j >= 0 {
				s.Parent = spans[j].ID
			}
		}
	}
}

// enclosing returns the candidate whose interval contains s and starts
// latest (the innermost), or -1.
func enclosing(spans []span, cands []int, s span) int {
	best := -1
	for _, j := range cands {
		p := spans[j]
		if p.Start <= s.Start && s.End <= p.End && (best < 0 || p.Start > spans[best].Start) {
			best = j
		}
	}
	return best
}

// children groups spans by parent id.
func children(spans []span) map[uint64][]span {
	out := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children (a hedged call beside its primary,
// parallel shard calls) count once.
func selfTime(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	curA, curB := int64(-1), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			covered += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		if v.b > curB {
			curB = v.b
		}
	}
	covered += curB - curA
	return p.dur() - covered
}
