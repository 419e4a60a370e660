package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// op is one request the load generator sends. Sources produce ops in a
// fixed order from the run's seed, so the same seed sends the same
// request sequence.
type op struct {
	id     uint64
	kind   string // request class, e.g. "approx", "tile", "insert"
	method string
	path   string
	body   []byte
	// n is how many operations the request counts as: the batch size, or
	// the number of points inserted.
	n int
	// check validates a 200 response body; nil leaves it unchecked.
	check func(body []byte) error
	// q and batch keep the query vectors for in-process replay.
	q     []float64
	batch [][]float64
}

// sample is one sent request. Times are offsets from the phase start;
// due is when the schedule wanted the request sent (equal to sent in a
// closed loop).
type sample struct {
	kind            string
	n               int
	due, sent, done time.Duration
	err             error
}

// latency counts from the due time, so a stall that delays later sends
// shows in their latency too.
func (s sample) latency() time.Duration { return s.done - s.due }

// lateness is how far behind its schedule the generator sent the request.
func (s sample) lateness() time.Duration { return s.sent - s.due }

// client sends ops over at most conns keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 20 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one op and returns the response body of a 200 answer.
func (c *client) do(ctx context.Context, o *op) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, o.method, c.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if o.id != 0 {
		req.Header.Set(idHeader, strconv.FormatUint(o.id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", o.method, o.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// violation is a checked answer that the oracle refutes.
type violation struct{ err error }

func (v *violation) Error() string { return "wrong answer: " + v.err.Error() }

func (c *client) send(ctx context.Context, o *op) error {
	body, err := c.do(ctx, o)
	if err == nil && o.check != nil {
		if cerr := o.check(body); cerr != nil {
			err = &violation{cerr}
		}
	}
	return err
}

// source yields the next op. Sources are not safe for concurrent use;
// the load generator serializes calls.
type source func() *op

// drainLimit bounds how long an open loop keeps sending a backlog after
// its schedule ends; requests still queued then are counted as failed.
const drainLimit = 5 * time.Second

// arrivals returns Poisson arrival offsets at the given rate over dur.
func arrivals(rate float64, dur time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// openLoop sends src's ops at the given arrival offsets over conns
// connections, whatever the server's speed: a request due while every
// connection is busy waits, and its latency includes the wait.
func openLoop(ctx context.Context, c *client, src source, due []time.Duration, conns int) []sample {
	type job struct {
		due time.Duration
		o   *op
	}
	if len(due) == 0 {
		return nil
	}
	jobs := make(chan job)
	out := make([]sample, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if d := time.Until(start.Add(j.due)); d > 0 {
					time.Sleep(d)
				}
				s := sample{kind: j.o.kind, n: j.o.n, due: j.due}
				s.sent = time.Since(start)
				if s.sent > due[len(due)-1]+drainLimit {
					s.err = fmt.Errorf("not sent: generator %v behind schedule", s.sent-j.due)
				} else {
					s.err = c.send(ctx, j.o)
				}
				s.done = time.Since(start)
				mu.Lock()
				out[next] = s
				next++
				mu.Unlock()
			}
		}()
	}
	for _, d := range due {
		jobs <- job{due: d, o: src()}
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedLoop runs conns connections for dur, each sending its next op as
// soon as the previous one answers. Connection i draws from
// srcs[i%len(srcs)]; connections sharing a source take turns on it.
func closedLoop(ctx context.Context, c *client, srcs []source, dur time.Duration, conns int) []sample {
	locks := make([]sync.Mutex, len(srcs))
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := i % len(srcs)
			for time.Since(start) < dur {
				locks[k].Lock()
				o := srcs[k]()
				locks[k].Unlock()
				s := sample{kind: o.kind, n: o.n}
				s.sent = time.Since(start)
				s.due = s.sent
				s.err = c.send(ctx, o)
				s.done = time.Since(start)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out
}

// cycled runs n cycles of an open-loop segment, Poisson arrivals at rate
// for open, followed by a closed-loop segment of length closed, all over
// conns connections. It returns each cycle's samples, timed from the
// start of their segment. Cycle i's arrivals come from seed+i. settle,
// when set, runs untimed after each closed-loop segment, so the next open
// segment does not start in the wake of the burst.
func cycled(ctx context.Context, c *client, src source, rate float64, open, closed time.Duration, n, conns int, seed int64, settle func()) (openW, closedW [][]sample) {
	for i := 0; i < n; i++ {
		openW = append(openW, openLoop(ctx, c, src, arrivals(rate, open, seed+int64(i)), conns))
		closedW = append(closedW, closedLoop(ctx, c, []source{src}, closed, conns))
		if settle != nil {
			settle()
		}
	}
	return openW, closedW
}

// tally folds samples into operation counts and per-class latencies.
type tally struct {
	attempted, failed int
	violations        int // failed checks, a subset of failed
	ops               int // operations completed (batch sizes, points inserted)
	firstErr          error
	lat               map[string]*dist // ms from due time, successful requests
	late              dist             // generator lateness, ms
}

func newTally() *tally { return &tally{lat: map[string]*dist{}} }

func (t *tally) add(samples []sample) {
	for _, s := range samples {
		t.attempted++
		t.late.add(ms(s.lateness()))
		if s.err != nil {
			t.failed++
			var v *violation
			if errors.As(s.err, &v) {
				t.violations++
			}
			if t.firstErr == nil {
				t.firstErr = s.err
			}
			continue
		}
		t.ops += s.n
		d := t.lat[s.kind]
		if d == nil {
			d = &dist{}
			t.lat[s.kind] = d
		}
		d.add(ms(s.latency()))
	}
}

// class returns the latency distribution of the given request classes
// pooled together.
func (t *tally) class(kinds ...string) *dist {
	out := &dist{}
	for _, k := range kinds {
		if d := t.lat[k]; d != nil {
			for _, v := range d.v {
				out.add(v)
			}
		}
	}
	return out
}
