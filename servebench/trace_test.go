package main

import (
	"encoding/json"
	"testing"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	p := span{Start: 0, End: 100}
	for _, c := range []struct {
		name string
		kids []span
		want int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		// A hedged call beside its primary, and a parallel fan-out:
		// covered time counts once.
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 20, End: 60}, {Start: 25, End: 30}}, 50},
		{"touching", []span{{Start: 10, End: 20}, {Start: 20, End: 30}}, 80},
		// Children sticking out of the parent are clipped to it.
		{"clipped", []span{{Start: -10, End: 10}, {Start: 90, End: 120}}, 80},
		{"covering", []span{{Start: 0, End: 100}}, 0},
	} {
		if got := selfTime(p, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLinkTiesSpansToTheirParents(t *testing.T) {
	q := []float64{0.25, 0.5}
	body, _ := json.Marshal(map[string]any{"q": q, "eps": 0.1})
	spans := []span{
		{ID: 1, Layer: layerFront, Req: 7, Start: 0, End: 100},
		{ID: 2, Layer: layerShard, Req: 7, Start: 10, End: 90},
		{ID: 3, Layer: layerClient, Req: 7, Start: 12, End: 88},
		{ID: 4, Layer: layerServer, Req: 7, Where: "leader-1", Start: 20, End: 80, body: body},
		{ID: 5, Layer: layerEngine, Where: "leader-1", Key: hashQuery(q), Start: 30, End: 70},
		// Same query on another instance, and an engine call outside every
		// handler: neither may be adopted by span 4.
		{ID: 6, Layer: layerEngine, Where: "leader-2", Key: hashQuery(q), Start: 30, End: 70},
		{ID: 7, Layer: layerEngine, Where: "leader-1", Key: hashQuery(q), Start: 85, End: 95},
		// A second request's shard call must not attach to request 7.
		{ID: 8, Layer: layerShard, Req: 9, Start: 10, End: 20},
	}
	link(spans)
	want := map[uint64]uint64{1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 0, 7: 0, 8: 0}
	for _, s := range spans {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d: parent %d, want %d", s.ID, s.Parent, want[s.ID])
		}
	}
	if spans[4].Req != 7 {
		t.Errorf("engine span took request id %d, want 7", spans[4].Req)
	}
	kids := children(spans)
	if got := selfTime(spans[3], kids[4]); got != 20 {
		t.Errorf("server self time = %d, want 20", got)
	}
}

func TestHashQuerySurvivesJSON(t *testing.T) {
	q := []float64{0.1 + 0.2, 1.0 / 3, -7.5e-12, 123456.789}
	b, _ := json.Marshal(q)
	var back []float64
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if hashQuery(q) != hashQuery(back) {
		t.Fatal("a query hashed before and after a JSON round trip must match")
	}
	if hashQuery(q) == hashQuery(q[:3]) {
		t.Fatal("different vectors should hash apart")
	}
}
