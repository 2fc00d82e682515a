package janus_test

import (
	"strings"
	"testing"
	"time"

	"janus"
)

// TestFacadeEndToEnd exercises the public API surface the way README's
// quickstart does — define, deploy, serve, compare — on the IA-shaped
// chain and on the od -> {qa, ts} -> ico diamond: a fork-join workflow
// goes through the same DAG API as a chain.
func TestFacadeEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*janus.Workflow, error)
	}{
		{"chain", func() (*janus.Workflow, error) {
			return janus.NewChain("demo", 3*time.Second, "od", "qa", "ts")
		}},
		{"diamond", func() (*janus.Workflow, error) {
			return janus.NewSeriesParallelWorkflow("diamond", 3500*time.Millisecond,
				[][]string{{"od"}, {"qa", "ts"}, {"ico"}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			coloc, err := janus.NewColocationSampler([]float64{0.6, 0.3, 0.1})
			if err != nil {
				t.Fatal(err)
			}
			dep, err := janus.Deploy(w, janus.DeployOptions{
				Functions:        janus.Catalog(),
				Colocation:       coloc,
				Interference:     janus.DefaultInterference(),
				Seed:             3,
				SamplesPerConfig: 400,
				BudgetStepMs:     25,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := dep.Bundle().Stages(), len(w.DecisionGroups()); got != want {
				t.Fatalf("bundle stages = %d, want one per decision group (%d)", got, want)
			}
			reqs, err := janus.GenerateWorkload(janus.WorkloadConfig{
				Workflow:          w,
				Functions:         janus.Catalog(),
				N:                 50,
				ArrivalRatePerSec: 2,
				Colocation:        coloc,
				Interference:      janus.DefaultInterference(),
				StageCorrelation:  0.5,
				Seed:              3,
			})
			if err != nil {
				t.Fatal(err)
			}
			ex, err := janus.NewExecutor(janus.DefaultExecutorConfig(), janus.Catalog())
			if err != nil {
				t.Fatal(err)
			}
			janusTraces, err := ex.Run(reqs, dep.Allocator("janus"))
			if err != nil {
				t.Fatal(err)
			}
			early, err := janus.GrandSLAMPlus(dep.Profiles, w.SLO())
			if err != nil {
				t.Fatal(err)
			}
			earlyTraces, err := ex.Run(reqs, early)
			if err != nil {
				t.Fatal(err)
			}
			if jm, em := janus.MeanMillicores(janusTraces), janus.MeanMillicores(earlyTraces); jm >= em {
				t.Fatalf("janus (%.0f) not below early binding (%.0f)", jm, em)
			}
			if v := janus.SLOViolationRate(janusTraces); v > 0.05 {
				t.Fatalf("janus violation rate %.3f", v)
			}
		})
	}
}

// TestFacadeBundleRoundTrip checks the serialization surface.
func TestFacadeBundleRoundTrip(t *testing.T) {
	coloc, err := janus.NewColocationSampler([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := janus.Deploy(janus.VideoAnalyze(), janus.DeployOptions{
		Functions:        janus.Catalog(),
		Colocation:       coloc,
		Interference:     janus.DefaultInterference(),
		Seed:             4,
		SamplesPerConfig: 400,
		BudgetStepMs:     25,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := dep.Bundle().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := janus.ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	a, err := janus.NewAdapter(back)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Decide(0, 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeFleetSurface pins the fleet-scale exports: the grid
// enumerates the replay configurations at fleet dimensions.
func TestFacadeFleetSurface(t *testing.T) {
	if janus.FleetNodes < 100 {
		t.Fatalf("FleetNodes = %d; the fleet scenario promises hundreds of nodes", janus.FleetNodes)
	}
	if janus.FleetNodeMillicores <= 0 {
		t.Fatalf("FleetNodeMillicores = %d", janus.FleetNodeMillicores)
	}
	pts := janus.FleetExperimentPoints()
	if len(pts) != len(janus.ReplayExperimentPoints()) {
		t.Fatalf("fleet grid has %d points, replay grid %d — they serve the same configurations",
			len(pts), len(janus.ReplayExperimentPoints()))
	}
	for _, p := range pts {
		if !strings.Contains(p.Description, "fleet scale") {
			t.Fatalf("point %q does not describe fleet scale: %q", p.Config, p.Description)
		}
	}
}
