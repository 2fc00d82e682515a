package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestPercentileNeedsTailSamples(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p99, ok := percentile(xs, 99)
	if p99 != 990 || !ok {
		t.Fatalf("p99 of 1..1000 = %v (ok %v), want 990 with 10 samples beyond", p99, ok)
	}
	if _, ok := percentile(xs[:999], 99); ok {
		t.Fatalf("p99 of 999 samples has only 9 beyond it and must not be reported")
	}
	p50, ok := percentile(xs[:20], 50)
	if p50 != 10 || !ok {
		t.Fatalf("p50 of 1..20 = %v (ok %v), want 10 with 10 beyond", p50, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Fatalf("percentile of no samples reported")
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 2, 8, 4, 6, 9, 5}
	q1, q3, err := quartiles(xs)
	if err != nil || q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, %v; want 2.75, 8.25", q1, q3, err)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %v, want 5.5", m)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3, _ = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of 3 = %v, %v; want 1, 4", q1, q3)
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Fatalf("quartiles of one sample must fail")
	}
}

func TestFailRatio(t *testing.T) {
	if r := failRatio(200, 3); r != 0.015 {
		t.Fatalf("failRatio(200, 3) = %v", r)
	}
	if r := failRatio(0, 0); r != 0 {
		t.Fatalf("failRatio(0, 0) = %v", r)
	}
}

func TestSummarizeRuns(t *testing.T) {
	var in strings.Builder
	for _, v := range []float64{3, 1, 2, 5, 4} {
		line, _ := json.Marshal(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"wall_s": {v, "s"}}})
		in.Write(append(line, '\n'))
	}
	var out bytes.Buffer
	if err := summarize(strings.NewReader(in.String()), &out); err != nil {
		t.Fatal(err)
	}
	var got map[string]summary
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	s := got["wall_s"]
	if s.Runs != 5 || s.Median != 3 || s.Q1 != 1.5 || s.Q3 != 4.5 || math.Abs(s.Spread-1) > 1e-12 || s.Unit != "s" {
		t.Fatalf("summary = %+v", s)
	}
	bad := `{"correct":false,"attempted":1,"failed":0,"metrics":{}}`
	if err := summarize(strings.NewReader(bad), &out); err == nil {
		t.Fatalf("a failed run was summarized")
	}
}
