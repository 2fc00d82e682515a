package experiment

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"janus/internal/hints"
	"janus/internal/profile"
	"janus/internal/synth"
	"janus/internal/workflow"
)

// TestSynthesisBundlesGolden locks Algorithm 1's raw output hint by hint:
// every raw table (GenerateSuffix) and every shaped table, for IA, VA,
// VA-SP, the ml-dag DAG and the trigger workflow under Janus, Janus+ and
// Janus-, at the quick suite's profiles and budget step. Each line is
// one hint: budget, head millicores, head percentile, plan and expected
// cost (%v, so a cost that moves in its last bit changes the file).
// TestChainSPGolden pins the condensed Janus bundles and the serving
// hashes; this pins the search itself, so a change to the synthesizer's
// inner loop must reproduce it byte for byte. Regenerate with
// `go test ./internal/experiment -run Golden -update` — but only when a
// behavior change is intended.
func TestSynthesisBundlesGolden(t *testing.T) {
	s := quickSuite(t)
	dag, err := DAGWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	trig, err := TriggerWorkflow()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, w := range []*workflow.Workflow{
		workflow.IntelligentAssistant(), workflow.VideoAnalyze(), workflow.VideoAnalyzeSP(), dag, trig,
	} {
		set, err := s.Profiles(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []synth.Mode{synth.ModeJanus, synth.ModeJanusPlus, synth.ModeJanusMinus} {
			fmt.Fprintf(&b, "workflow %s mode=%v groups=%d\n", w.Name(), mode, set.Len())
			cfg := synth.Config{Profiles: set, Weight: 1, Mode: mode, BudgetStepMs: s.cfg.BudgetStepMs}
			sy := newSynthesizer(t, cfg)
			for g := 0; g < set.Len(); g++ {
				writeRawTable(t, &b, "raw", sy, g)
			}
			if len(set.Shaped) == 0 {
				continue
			}
			// A shaped table is the group's cone with its head swapped for
			// the shape variant; synthesizing the group's table over a set
			// carrying that variant as the group's profile reproduces it.
			// Condensing it must give the deployed bundle's shaped table.
			d, err := s.Deployment(w, 1, mode, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range slices.Sorted(maps.Keys(set.Shaped)) {
				for _, shape := range slices.Sorted(maps.Keys(set.Shaped[g])) {
					v := *set
					v.Profiles = append([]*profile.FunctionProfile(nil), set.Profiles...)
					v.Profiles[g] = set.Shaped[g][shape]
					v.Shaped = nil
					vcfg := cfg
					vcfg.Profiles = &v
					raw := writeRawTable(t, &b, "shaped "+shape, newSynthesizer(t, vcfg), g)
					tab, err := hints.Condense(raw)
					if err != nil {
						t.Fatal(err)
					}
					if want := d.Bundle().Shaped[g][shape]; want == nil || !reflect.DeepEqual(tab.Ranges, want.Ranges) {
						t.Fatalf("%s %v group %d %s: swapped-head table does not condense to the deployed shaped table", w.Name(), mode, g, shape)
					}
				}
			}
		}
	}
	checkGolden(t, "golden_bundles.txt", b.String(), "synthesized hint tables")
}

func newSynthesizer(t *testing.T, cfg synth.Config) *synth.Synthesizer {
	t.Helper()
	sy, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sy
}

// writeRawTable synthesizes group g's raw table and prints it one hint
// per line.
func writeRawTable(t *testing.T, b *strings.Builder, label string, sy *synth.Synthesizer, g int) *hints.RawTable {
	t.Helper()
	raw, err := sy.GenerateSuffix(g)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "  %s suffix=%d hints=%d\n", label, raw.Suffix, len(raw.Hints))
	for _, h := range raw.Hints {
		fmt.Fprintf(b, "    t=%d k=%d p=%d plan=%v cost=%v\n",
			h.BudgetMs, h.HeadMillicores, h.HeadPercentile, h.PlanMillicores, h.ExpectedCost)
	}
	return raw
}
