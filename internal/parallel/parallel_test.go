// Package parallel holds the series-parallel (fork-join) regression tests.
// Fork-join workflows have no API of their own: they are built with
// workflow.NewSeriesParallel, profiled per decision group by
// profile.Profiler.ProfileWorkflow and served by platform.Executor like any
// other DAG. These tests pin that path end to end on the fork-join shapes.
package parallel

import (
	"strings"
	"testing"
	"time"

	"janus/internal/baseline"
	"janus/internal/cluster"
	"janus/internal/core"
	"janus/internal/interfere"
	"janus/internal/perfmodel"
	"janus/internal/platform"
	"janus/internal/profile"
	"janus/internal/synth"
	"janus/internal/workflow"
)

// diamond is OD fanning into a parallel (QA, TS) stage and joining into
// ICO: the canonical series-parallel shape.
func diamond(t *testing.T) *workflow.Workflow {
	t.Helper()
	w, err := workflow.NewSeriesParallel("diamond", 3500*time.Millisecond, [][]string{{"od"}, {"qa", "ts"}, {"ico"}})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testColocation(t *testing.T) *interfere.CountSampler {
	t.Helper()
	coloc, err := interfere.NewCountSampler([]float64{0.6, 0.3, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return coloc
}

func testProfiler(t *testing.T) *profile.Profiler {
	t.Helper()
	p, err := profile.NewProfiler(perfmodel.Catalog(), testColocation(t), interfere.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	p.SamplesPerConfig = 1000
	return p
}

// group is a decision group of the given functions, step names defaulting
// to the function names.
func group(functions ...string) workflow.Group {
	g := workflow.Group{}
	for _, f := range functions {
		g.Nodes = append(g.Nodes, workflow.Node{Name: f, Function: f})
	}
	return g
}

func TestValidate(t *testing.T) {
	bad := []struct {
		name   string
		slo    time.Duration
		stages [][]string
	}{
		{"", time.Second, [][]string{{"od"}}},
		{"x", 0, [][]string{{"od"}}},
		{"x", time.Second, nil},
		{"x", time.Second, [][]string{{}}},
		{"x", time.Second, [][]string{{""}}},
	}
	for i, b := range bad {
		if _, err := workflow.NewSeriesParallel(b.name, b.slo, b.stages); err == nil {
			t.Errorf("bad workflow %d accepted", i)
		}
	}
	if !diamond(t).IsSeriesParallel() {
		t.Fatal("diamond is not series-parallel")
	}
}

func TestProfileStageCompositeDominatesBranches(t *testing.T) {
	p := testProfiler(t)
	composite, err := p.ProfileGroup(group("qa", "ts"), 1)
	if err != nil {
		t.Fatal(err)
	}
	qa, err := p.ProfileGroup(group("qa"), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := p.ProfileGroup(group("ts"), 1)
	if err != nil {
		t.Fatal(err)
	}
	// max(QA, TS) stochastically dominates each branch. The estimates come
	// from independent Monte-Carlo paths, so compare with the sampling
	// tolerance appropriate to each percentile: tight at the median, loose
	// at the tail.
	tolerance := map[int]float64{50: 0.97, 99: 0.85}
	for _, pct := range []int{50, 99} {
		for _, k := range []int{1000, 2000, 3000} {
			floor := float64(max(qa.LMs(pct, k), ts.LMs(pct, k))) * tolerance[pct]
			if float64(composite.LMs(pct, k)) < floor {
				t.Errorf("composite L(%d,%d)=%d below dominated floor %.0f (qa %d, ts %d)",
					pct, k, composite.LMs(pct, k), floor, qa.LMs(pct, k), ts.LMs(pct, k))
			}
		}
	}
	if !strings.Contains(composite.Function, "par(2)") {
		t.Errorf("composite name %q", composite.Function)
	}
}

func TestProfileStageValidation(t *testing.T) {
	p := testProfiler(t)
	if _, err := p.ProfileGroup(group("nope"), 1); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := p.ProfileGroup(group("fe"), 2); err == nil {
		t.Error("unsupported batch accepted")
	}
	if _, err := profile.NewProfiler(perfmodel.Catalog(), nil, interfere.Default(), 3); err == nil {
		t.Error("missing colocation accepted")
	}
}

func TestReduceBuildsEffectiveChain(t *testing.T) {
	set, err := testProfiler(t).ProfileWorkflow(diamond(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 {
		t.Fatalf("effective chain has %d stages", set.Len())
	}
	// The set's workflow is the fork-join DAG itself; the per-group
	// profiles form the effective chain the synthesizer consumes.
	if set.Workflow.IsChain() || !set.Workflow.IsSeriesParallel() {
		t.Fatal("profiling should keep the fork-join DAG")
	}
	if got := len(set.Groups()); got != 3 {
		t.Fatalf("workflow has %d decision groups", got)
	}
	if set.Workflow.SLO() != 3500*time.Millisecond {
		t.Fatalf("SLO lost: %v", set.Workflow.SLO())
	}
	// The middle stage is the composite.
	if !strings.Contains(set.At(1).Function, "par(2)") {
		t.Fatalf("middle profile is %q", set.At(1).Function)
	}
}

// TestVideoAnalyzeSPOnClusterSubstrate is the acceptance test for serving
// series-parallel workflows on the real serving plane: the SP Video Analyze
// application runs end-to-end through platform.Executor under Janus and an
// early-binding baseline, with cold starts, capacity parking, and live
// co-location interference all exercised, and results reproducible byte for
// byte.
func TestVideoAnalyzeSPOnClusterSubstrate(t *testing.T) {
	w := workflow.VideoAnalyzeSP()
	coloc := testColocation(t)
	set, err := testProfiler(t).ProfileWorkflow(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.DeployProfiled(set, core.Options{
		Functions:           perfmodel.Catalog(),
		Colocation:          coloc,
		Interference:        interfere.Default(),
		Seed:                5,
		Mode:                synth.ModeJanus,
		BudgetStepMs:        10,
		DisableRegeneration: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gsp, err := baseline.GrandSLAMPlus(set, w.SLO())
	if err != nil {
		t.Fatal(err)
	}
	const n = 150
	reqs, err := platform.GenerateWorkload(platform.WorkloadConfig{
		Workflow:          w,
		Functions:         perfmodel.Catalog(),
		N:                 n,
		Batch:             1,
		ArrivalRatePerSec: 6,
		Colocation:        coloc,
		Interference:      interfere.Default(),
		Seed:              9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A cramped, barely-warmed cluster with live interference: branches
	// cold-start, queue for capacity, and see the live co-location census.
	ecfg := platform.DefaultExecutorConfig()
	ecfg.Cluster = cluster.Config{Nodes: 1, NodeMillicores: 9000, PoolSize: 1, IdleMillicores: 100}
	ecfg.LiveInterference = true
	ecfg.Interference = interfere.Default()
	ecfg.Seed = 7
	ex, err := platform.NewExecutor(ecfg, perfmodel.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	for _, alloc := range []platform.Allocator{dep.Allocator("janus"), gsp} {
		a, err := ex.Run(reqs, alloc)
		if err != nil {
			t.Fatalf("%s: %v", alloc.Name(), err)
		}
		b, err := ex.Run(reqs, alloc)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != n {
			t.Fatalf("%s: %d traces", alloc.Name(), len(a))
		}
		cold, parked := 0, 0
		for i := range a {
			parked += a[i].Parked
			fanOut := 0
			for s := range a[i].Stages {
				if a[i].Stages[s].Cold {
					cold++
				}
				if a[i].Stages[s].Stage == 1 {
					fanOut++
				}
				if a[i].Stages[s] != b[i].Stages[s] {
					t.Fatalf("%s: trace %d stage %d diverged across identical runs", alloc.Name(), i, s)
				}
			}
			if fanOut != 2 {
				t.Fatalf("%s: trace %d ran %d fan-out branches, want 2", alloc.Name(), i, fanOut)
			}
			if len(a[i].Stages) != 3 {
				t.Fatalf("%s: trace %d ran %d branches, want 3 (fe, icl, ico)", alloc.Name(), i, len(a[i].Stages))
			}
			if a[i].E2E != b[i].E2E || a[i].TotalMillicores != b[i].TotalMillicores {
				t.Fatalf("%s: summary diverged across identical runs", alloc.Name())
			}
		}
		if cold == 0 {
			t.Fatalf("%s: no cold starts on a PoolSize-1 cluster", alloc.Name())
		}
		if parked == 0 {
			t.Fatalf("%s: no capacity parking on a 9000mc node", alloc.Name())
		}
	}
}

// TestWorkflowDAGRoundTrip checks that a fork-join workflow survives its
// round trips: the DAG decomposes back into the stages it was built from,
// and its wire spec rebuilds the same fork-join workflow.
func TestWorkflowDAGRoundTrip(t *testing.T) {
	w := diamond(t)
	if w.IsChain() {
		t.Fatal("diamond DAG reported as chain")
	}
	want := [][]string{{"od"}, {"qa", "ts"}, {"ico"}}
	stages, err := w.SeriesParallel()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != len(want) {
		t.Fatalf("round trip lost shape: %d stages, want %d", len(stages), len(want))
	}
	for i := range want {
		if len(stages[i]) != len(want[i]) {
			t.Fatalf("stage %d branch count changed", i)
		}
		for b, n := range stages[i] {
			if n.Function != want[i][b] {
				t.Fatalf("stage %d branch %d is %q, want %q", i, b, n.Function, want[i][b])
			}
		}
	}
	spec := w.ToSpec()
	back, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != w.Name() || back.SLO() != w.SLO() || back.Len() != w.Len() || !back.IsSeriesParallel() {
		t.Fatalf("spec round trip lost shape: %s/%v, %d nodes", back.Name(), back.SLO(), back.Len())
	}
	if len(back.DecisionGroups()) != len(want) {
		t.Fatalf("spec round trip has %d decision groups, want %d", len(back.DecisionGroups()), len(want))
	}
	if !workflow.VideoAnalyzeSP().IsSeriesParallel() {
		t.Fatal("catalog VA-SP is not series-parallel")
	}
}

// TestSingleStageForkDAG is the regression test for the disconnected-node
// validation: a one-stage parallel workflow (a pure fork-join map) is a
// DAG with multiple nodes and zero edges, which must stay valid — all
// members form one decision group and join at completion.
func TestSingleStageForkDAG(t *testing.T) {
	w, err := workflow.NewSeriesParallel("map", 2*time.Second, [][]string{{"qa", "ts"}})
	if err != nil {
		t.Fatalf("single-stage fork rejected: %v", err)
	}
	groups := w.DecisionGroups()
	if len(groups) != 1 || len(groups[0].Nodes) != 2 {
		t.Fatalf("fork groups = %+v", groups)
	}
	if _, err := testProfiler(t).ProfileWorkflow(w, 1); err != nil {
		t.Fatalf("single-stage fork profiling failed: %v", err)
	}
}
