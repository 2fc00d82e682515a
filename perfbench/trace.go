package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Name is "<layer>.<operation>"; Parent
// is the enclosing span's ID (0 for a root); Phase separates set-up,
// measured passes and after-the-fact probes so each can be reported on
// its own.
type Span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"`
	Name     string        `json:"name"`
	Workload string        `json:"workload"`
	Phase    string        `json:"phase"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
}

// Layer is the span name's prefix before the first dot.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced mode: Start returns 0 and End does nothing, so measured
// code paths call it unconditionally.
type Recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []Span
}

func newRecorder(workload string) *Recorder {
	return &Recorder{t0: time.Now(), workload: workload}
}

// Start opens a span and returns its ID.
func (r *Recorder) Start(name, phase string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Workload: r.workload, Phase: phase, Start: now, End: -1})
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Spans returns a copy of the closed spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes the spans as one JSON array.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums each layer's self time over the spans of one phase: a
// span's duration minus the part of it its children cover. Children may
// overlap one another (concurrent connections, fanned-out workers), so
// the covered part is the union of their intervals, clipped to the span.
func selfTimes(spans []Span, phase string) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Phase == phase && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.Phase != phase {
			continue
		}
		out[s.Layer()] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// busy sums the duration and count of the phase's spans with one name.
func busy(spans []Span, phase, name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range spans {
		if s.Phase == phase && s.Name == name {
			d += s.End - s.Start
			n++
		}
	}
	return d, n
}
