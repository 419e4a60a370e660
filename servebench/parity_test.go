package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"karl"
	"karl/internal/replica"
	"karl/internal/server"
)

// probe is one request a parity check sends to both servers.
type probe struct{ method, path, body string }

var probes = []probe{
	{"GET", "/v1/info", ""},
	{"GET", "/v1/healthz", ""},
	{"GET", "/v1/readyz", ""},
	{"POST", "/v1/insert", `{"points":[[0.1,0.2],[0.3,0.4],[0.5,0.6]]}`},
	{"POST", "/v1/approximate", `{"q":[0.2,0.3],"eps":0.1}`},
	{"POST", "/v1/threshold", `{"q":[0.2,0.3],"tau":0.5}`},
	{"POST", "/v1/aggregate", `{"q":[0.2,0.3]}`},
	{"POST", "/v1/bounds", `{"q":[0.2,0.3],"eps":0.1}`},
	{"POST", "/v1/batch", `{"kind":"approximate","queries":[[0.2,0.3],[0.4,0.4]],"eps":0.1}`},
	{"DELETE", "/v1/point", `{"id":1}`},
	{"GET", "/v1/replicate/status", ""},
	{"GET", "/v1/replicate/tail?fence=0&del=0", ""},
	{"GET", "/v1/stats", ""},
}

type reply struct {
	status int
	keys   string // the JSON object's keys, and those of its object members
}

func call(t *testing.T, base string, p probe) reply {
	t.Helper()
	req, err := http.NewRequest(p.method, base+p.path, strings.NewReader(p.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return reply{resp.StatusCode, shape(b)}
}

// shape lists a JSON object's keys and one level of nested keys, so two
// /v1/stats bodies compare by the blocks they carry, not their counts.
func shape(b []byte) string {
	var m map[string]json.RawMessage
	if json.Unmarshal(b, &m) != nil {
		return ""
	}
	var keys []string
	for k, v := range m {
		keys = append(keys, k)
		var inner map[string]json.RawMessage
		if json.Unmarshal(v, &inner) == nil {
			for ik := range inner {
				keys = append(keys, k+"."+ik)
			}
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func newEngine(t *testing.T) *karl.DynamicEngine {
	t.Helper()
	d, err := karl.NewDynamic(karl.Gaussian(2), karl.WithSealSize(2))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// parity serves two servers built by mk — one over a plain engine, one
// over the tracing decorator behind the tracing middleware — and checks
// every probe answers alike.
func parity(t *testing.T, mk func(eng karl.MutableEngine, raw *karl.DynamicEngine) (*server.Server, error)) {
	rec := newRecorder()
	plainEng, tracedEng := newEngine(t), newEngine(t)
	plain, err := mk(plainEng, plainEng)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := mk(&tracedDyn{DynamicEngine: tracedEng, rec: rec, where: "t"}, tracedEng)
	if err != nil {
		t.Fatal(err)
	}
	a := httptest.NewServer(plain)
	defer a.Close()
	b := httptest.NewServer(rec.handler(layerServer, "t", traced))
	defer b.Close()
	for _, p := range probes {
		ra, rb := call(t, a.URL, p), call(t, b.URL, p)
		if ra != rb {
			t.Errorf("%s %s: untraced %+v, traced %+v", p.method, p.path, ra, rb)
		}
	}
	if len(rec.snapshot()) == 0 {
		t.Error("the traced server recorded no spans")
	}
}

func TestDecoratorParityLeader(t *testing.T) {
	parity(t, func(eng karl.MutableEngine, _ *karl.DynamicEngine) (*server.Server, error) {
		return server.NewMutable(eng)
	})
}

func TestDecoratorParityFollower(t *testing.T) {
	leader := newEngine(t)
	if _, err := leader.InsertBulk([][]float64{{0.1, 0.1}, {0.9, 0.9}}, nil); err != nil {
		t.Fatal(err)
	}
	parity(t, func(eng karl.MutableEngine, raw *karl.DynamicEngine) (*server.Server, error) {
		src := &tracedSource{Source: replica.EngineSource{Eng: leader}, rec: newRecorder(), where: "f"}
		a := replica.NewApplier(raw, src)
		if err := a.CatchUp(context.Background()); err != nil {
			return nil, err
		}
		return server.NewMutable(eng, server.WithReplicaApplier(a))
	})
}
