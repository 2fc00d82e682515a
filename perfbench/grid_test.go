package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestDigestStableAcrossRunsAndTracing(t *testing.T) {
	specs, err := gridSpecs()
	if err != nil {
		t.Fatal(err)
	}
	g := *specs["trigger"]
	g.subSeeds = 1
	inputs, err := setupGrid(&g, 7)
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for _, rec := range []*Recorder{nil, nil, newRecorder("trigger")} {
		o, _, _, err := g.pass(inputs[0], rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(o.problems) > 0 {
			t.Fatalf("conservation: %v", o.problems)
		}
		if o.simRequests != 2*inputs[0].arrivals {
			t.Fatalf("served %d requests over two configurations of %d arrivals", o.simRequests, inputs[0].arrivals)
		}
		digests = append(digests, o.digest)
	}
	if digests[0] != digests[1] || digests[0] != digests[2] {
		t.Fatalf("digests differ across identical passes: %v", digests)
	}
	other, err := setupGrid(&g, 8)
	if err != nil {
		t.Fatal(err)
	}
	o, _, _, err := g.pass(other[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.digest == digests[0] {
		t.Fatalf("another seed gave the same digest %s", o.digest)
	}
}

func TestCheckDigestAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	if err := checkDigest(dir, "fleet", 3, "abc"); err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(dir, "fleet", 3, "abc"); err != nil {
		t.Fatalf("same digest rejected: %v", err)
	}
	if err := checkDigest(dir, "fleet", 3, "abd"); err == nil {
		t.Fatalf("changed digest accepted")
	}
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json and the metrics
// this program prints in step: same names, same units, same order.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []metricDef
	}{{bench.EndToEnd, endToEnd}, {bench.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.file), len(c.code))
		}
		for i, m := range c.file {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
