package main

import (
	"testing"
	"time"
)

func TestSelfTimeFromNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "experiment.pass", Phase: "pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "profile.Profiles", Phase: "pass", Start: 0, End: 10 * ms},
		{ID: 3, Parent: 1, Name: "synth.Deployment", Phase: "pass", Start: 10 * ms, End: 40 * ms},
		// Two overlapping children: their union, 40..90, counts once.
		{ID: 4, Parent: 1, Name: "platform.grid", Phase: "pass", Start: 40 * ms, End: 80 * ms},
		{ID: 5, Parent: 1, Name: "platform.grid", Phase: "pass", Start: 50 * ms, End: 90 * ms},
		// A grandchild is charged to its own layer and removed from its parent.
		{ID: 6, Parent: 3, Name: "profile.Profiles", Phase: "pass", Start: 20 * ms, End: 25 * ms},
		// A child running past its parent is clipped.
		{ID: 7, Parent: 2, Name: "synth.Deployment", Phase: "pass", Start: 5 * ms, End: 15 * ms},
		// Other phases are not counted.
		{ID: 8, Name: "synth.regen", Phase: "probe", Start: 0, End: time.Second},
	}
	got := selfTimes(spans, "pass")
	want := map[string]time.Duration{
		"experiment": 10 * ms,       // 100 - (0..90 covered)
		"profile":    5*ms + 5*ms,   // 10 - 5 (clipped child), plus the grandchild's 5
		"synth":      25*ms + 10*ms, // 30 - 5, plus the clipped child's full 10
		"platform":   40*ms + 40*ms, // both spans, no children
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want exactly %v", got, want)
	}
}

func TestRecorderNilIsUntraced(t *testing.T) {
	var r *Recorder
	id := r.Start("platform.grid", "pass", 0)
	r.End(id)
	if id != 0 || r.Spans() != nil {
		t.Fatalf("nil recorder recorded a span")
	}
	r = newRecorder("fleet")
	outer := r.Start("experiment.pass", "pass", 0)
	inner := r.Start("platform.grid", "pass", outer)
	r.End(inner)
	open := r.Start("synth.regen", "probe", 0)
	r.End(outer)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != outer || spans[0].Workload != "fleet" || spans[1].Layer() != "platform" {
		t.Fatalf("spans = %+v", spans)
	}
	_ = open
}
