package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSampleTimesFromDue(t *testing.T) {
	s := sample{due: 10 * time.Millisecond, sent: 15 * time.Millisecond, done: 17 * time.Millisecond}
	if got := s.latency(); got != 7*time.Millisecond {
		t.Errorf("latency = %v, want 7ms: counted from the due time, not the send", got)
	}
	if got := s.lateness(); got != 5*time.Millisecond {
		t.Errorf("lateness = %v, want 5ms", got)
	}
}

// TestOpenLoopChargesQueueingToLatency sends two requests due 1ms apart
// over one connection to a server that takes 40ms each: the second cannot
// be sent until the first answers, and its latency must include that wait.
func TestOpenLoopChargesQueueingToLatency(t *testing.T) {
	const service = 40 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	c := newClient(ts.URL, 1)
	defer c.close()
	n := 0
	src := func() *op { n++; return &op{id: uint64(n), kind: "k", method: http.MethodPost, path: "/", n: 1} }
	out := openLoop(context.Background(), c, src, []time.Duration{0, time.Millisecond}, 1)
	if len(out) != 2 {
		t.Fatalf("got %d samples, want 2", len(out))
	}
	second := out[0]
	if out[1].due > second.due {
		second = out[1]
	}
	if second.err != nil {
		t.Fatal(second.err)
	}
	if second.lateness() < service-5*time.Millisecond {
		t.Errorf("second request lateness %v, want about %v (it waited for the connection)", second.lateness(), service)
	}
	if second.latency() < 2*service-5*time.Millisecond {
		t.Errorf("second request latency %v, want at least about %v (wait plus service)", second.latency(), 2*service)
	}
	tl := newTally()
	tl.add(out)
	if tl.attempted != 2 || tl.failed != 0 || tl.ops != 2 || tl.lat["k"].n() != 2 {
		t.Errorf("tally = %+v", tl)
	}
}

func TestTallyCountsFailuresAndViolations(t *testing.T) {
	tl := newTally()
	tl.add([]sample{
		{kind: "a", n: 4},
		{kind: "a", n: 4, err: &violation{err: context.Canceled}},
		{kind: "a", n: 4, err: context.DeadlineExceeded},
	})
	if tl.attempted != 3 || tl.failed != 2 || tl.violations != 1 || tl.ops != 4 {
		t.Errorf("tally = attempted %d failed %d violations %d ops %d", tl.attempted, tl.failed, tl.violations, tl.ops)
	}
	if tl.lat["a"].n() != 1 {
		t.Errorf("failed requests must not enter the latency sample")
	}
}

func TestArrivalsAreSeededPoisson(t *testing.T) {
	a := arrivals(1000, 2*time.Second, 5)
	b := arrivals(1000, 2*time.Second, 5)
	if len(a) != len(b) {
		t.Fatal("the same seed must give the same schedule")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed must give the same schedule")
		}
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Errorf("%d arrivals in 2s at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("arrivals must be increasing")
		}
	}
}
