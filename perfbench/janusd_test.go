package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"janus/internal/catalog"
	"janus/internal/httpapi"
)

// TestClosedLoopAgainstInProcessServer drives the closed loop, traced,
// against the janusd handler served in-process: every decide and push
// succeeds, the sampled answers match the in-process adapter, and each
// traced cycle holds its requests' spans.
func TestClosedLoopAgainstInProcessServer(t *testing.T) {
	cs, err := buildCatalogs(subSeed(3, 0), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := catalog.Parse(cs.versions[0])
	if err != nil {
		t.Fatal(err)
	}
	srv := httpapi.NewServer()
	if _, _, err := srv.Registry().Load(f); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	rings := make([][]wireReq, 2)
	for c := range rings {
		if rings[c], err = drawStream(3, c, cs); err != nil {
			t.Fatal(err)
		}
	}
	rec := newRecorder("janusd")
	// The deadline is checked at cycle ends, so a zero duration runs
	// exactly one cycle: the traced first one.
	res := closedLoop(strings.TrimPrefix(ts.URL, "http://"), cs, rings, 0, rec)
	if len(res.cycles) != 1 || res.reloadOK != 1 || res.reloadFailed != 0 {
		t.Fatalf("cycles %d, pushes ok %d failed %d; want one clean cycle", len(res.cycles), res.reloadOK, res.reloadFailed)
	}
	out := &outcome{}
	for _, st := range res.conns {
		if st.failed != 0 {
			t.Fatalf("failed decides: %v", st.errs)
		}
	}
	n, err := verifySamples(cs, res.conns, out)
	if err != nil || n == 0 || len(out.problems) != 0 {
		t.Fatalf("verified %d samples: %v %v", n, err, out.problems)
	}
	spans := rec.Spans()
	counts := make(map[string]int)
	for _, s := range spans {
		counts[s.Name]++
		if s.Name != "janusd.cycle" && s.Parent != spans[0].ID {
			t.Fatalf("span %+v is not a child of the cycle %+v", s, spans[0])
		}
	}
	if counts["janusd.cycle"] != 1 || counts["catalog.reload"] != 1 || counts["httpapi.decide"] < cycleDecides {
		t.Fatalf("span counts %v", counts)
	}
	self := selfTimes(spans, "pass")
	if self["httpapi"] <= 0 || self["catalog"] <= 0 {
		t.Fatalf("self times %v", self)
	}
}
