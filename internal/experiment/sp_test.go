package experiment

import (
	"testing"
)

func TestSPScenarioServesEverySystem(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.SPScenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SPSystems()) {
		t.Fatalf("%d rows, want %d", len(rows), len(SPSystems()))
	}
	byName := map[string]SPRow{}
	for _, r := range rows {
		byName[r.System] = r
		if r.P99 <= 0 {
			t.Errorf("%s: non-positive P99", r.System)
		}
		// Two stages, three branch pods, 1000mc floor per pod.
		if r.MeanMillicores < 3000 {
			t.Errorf("%s: mean millicores %.0f below the 3-pod floor", r.System, r.MeanMillicores)
		}
	}
	// Late binding beats the identical-size early binder on the fork-join
	// workload, and never undercuts the clairvoyant floor.
	if byName[SysJanus].MeanMillicores >= byName[SysGrandSLAM].MeanMillicores {
		t.Errorf("janus %.0f mc not below grandslam %.0f mc",
			byName[SysJanus].MeanMillicores, byName[SysGrandSLAM].MeanMillicores)
	}
	if byName[SysJanus].MeanMillicores < byName[SysOptimal].MeanMillicores {
		t.Errorf("janus %.0f mc below the clairvoyant floor %.0f mc",
			byName[SysJanus].MeanMillicores, byName[SysOptimal].MeanMillicores)
	}
}

func TestSPArrivalSweepMonotonePressure(t *testing.T) {
	s := quickSuite(t)
	rows, err := s.SPArrivalSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(SPArrivalRates())*len(spSweepSystems()) {
		t.Fatalf("%d rows", len(rows))
	}
	// Consumption is rate-independent by construction (identical draws,
	// identical decisions per request for early binders); confirm for the
	// fixed-size system as a determinism cross-check on the sweep plumbing.
	gsp := map[float64]float64{}
	for _, r := range rows {
		if r.System == SysGrandSLAMP {
			gsp[r.RatePerSec] = r.MeanMillicores
		}
	}
	if len(gsp) != len(SPArrivalRates()) {
		t.Fatalf("grandslam+ missing rates: %v", gsp)
	}
}

func TestSPPointsGrid(t *testing.T) {
	points := SPPoints()
	want := len(SPSystems()) + len(SPArrivalRates())*len(spSweepSystems())
	if len(points) != want {
		t.Fatalf("%d points, want %d", len(points), want)
	}
	seen := map[string]bool{}
	for _, p := range points {
		if seen[p.String()] {
			t.Fatalf("duplicate point %s", p)
		}
		seen[p.String()] = true
		if !p.Workflow.IsSeriesParallel() || p.Workflow.IsChain() {
			t.Fatalf("point %s is not a fork-join workflow", p)
		}
	}
}
